package daydream_test

import (
	"strings"
	"sync"
	"testing"

	"daydream"
	"daydream/internal/core"
	"daydream/internal/whatif"
)

// profileGraph is the shared fixture: one profiled model graph.
func profileGraph(tb testing.TB, model string) *daydream.Graph {
	tb.Helper()
	tr, err := daydream.Collect(daydream.CollectConfig{Model: model})
	if err != nil {
		tb.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// ampEdit is Algorithm 3 written by hand against the patch's timings.
func ampEdit(p *daydream.Patch) error {
	ix := p.Base().LayerPhaseIndex()
	compute := ix.GPUComputeBound()
	for i, u := range ix.GPUTasks() {
		if compute[i] {
			p.SetDuration(u, p.Duration(u)/3)
		} else {
			p.SetDuration(u, p.Duration(u)/2)
		}
	}
	return nil
}

// TestCompareAcceptsEveryWhatIfForm pins the unified Compare: the
// built-in value and the same what-if built with the custom
// constructor predict bit-identically.
func TestCompareAcceptsEveryWhatIfForm(t *testing.T) {
	g := profileGraph(t, "resnet50")
	forms := []daydream.Optimization{
		daydream.OptAMP(),
		daydream.PatchOptimization("amp-patch", daydream.TimingOnly, ampEdit),
	}
	base, want, err := daydream.Compare(g, forms[0])
	if err != nil {
		t.Fatal(err)
	}
	if want >= base {
		t.Fatalf("AMP predicted no gain: %v vs %v", want, base)
	}
	for _, opt := range forms[1:] {
		b, got, err := daydream.Compare(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if b != base || got != want {
			t.Fatalf("%s: (%v, %v), built-in (%v, %v)", opt.Name(), b, got, base, want)
		}
	}
	if _, _, err := daydream.Compare(g, nil); err == nil {
		t.Fatal("Compare accepted a nil what-if")
	}
}

// TestCompareNoopStack pins the no-op fast path: an empty Stack reports
// the baseline on both sides without evaluating anything.
func TestCompareNoopStack(t *testing.T) {
	g := profileGraph(t, "resnet50")
	base, pred, err := daydream.Compare(g, daydream.Stack())
	if err != nil {
		t.Fatal(err)
	}
	if base != pred {
		t.Fatalf("no-op stack predicted %v, baseline %v", pred, base)
	}
}

// TestStackMatchesSequentialCompare checks the composed what-if against
// applying its parts in turn: AMP materialized, then FusedAdam over it.
func TestStackMatchesSequentialCompare(t *testing.T) {
	g := profileGraph(t, "bert-base")
	base, stacked, err := daydream.Compare(g, daydream.Stack(daydream.OptAMP(), daydream.OptFusedAdam()))
	if err != nil {
		t.Fatal(err)
	}
	p := daydream.NewPatch(g)
	if err := daydream.OptAMP().Apply(p); err != nil {
		t.Fatal(err)
	}
	amp, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	_, sequential, err := daydream.Compare(amp, daydream.OptFusedAdam())
	if err != nil {
		t.Fatal(err)
	}
	if stacked != sequential {
		t.Fatalf("stack predicts %v, sequential %v", stacked, sequential)
	}
	if stacked >= base {
		t.Fatal("AMP+FusedAdam predicted no gain on BERT")
	}
}

// TestOptP3MatchesP3Prediction pins the P3 Optimization value (its
// repeated baseline, patch and measure) evaluated through Compare to
// Algorithm 7's own prediction: the steady-state iteration time of the
// annotated two-round graph, materialized and cold-simulated.
func TestOptP3MatchesP3Prediction(t *testing.T) {
	tr, err := daydream.Collect(daydream.CollectConfig{
		Model: "vgg19", Device: "p4000", Framework: "mxnet",
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		t.Fatal(err)
	}
	topo := daydream.NewTopology(4, 1, 5)
	rep, err := g.Repeat(2)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPatch(rep)
	if err := whatif.P3Annotate(p, whatif.P3Options{Topology: topo, SliceBytes: whatif.P3SliceBytes(0)}); err != nil {
		t.Fatal(err)
	}
	if rep, err = p.Materialize(); err != nil {
		t.Fatal(err)
	}
	sim, err := rep.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	// The steady-state iteration: the distance between the two rounds'
	// completion frontiers.
	want := core.RoundSpan(rep, sim, 1) - core.RoundSpan(rep, sim, 0)
	_, got, err := daydream.Compare(g, daydream.OptP3(topo, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("OptP3 predicts %v, P3 prediction %v", got, want)
	}
}

// TestOptimizationRegistryAPI exercises the public registry surface.
func TestOptimizationRegistryAPI(t *testing.T) {
	specs := daydream.Optimizations()
	if len(specs) == 0 {
		t.Fatal("empty registry")
	}
	for _, want := range []string{"amp", "fusedadam", "reconbn", "distributed", "p3", "upgrade", "kprofile", "scale"} {
		found := false
		for _, s := range specs {
			if s.Name == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("registry misses %q", want)
		}
	}
	opt, err := daydream.ParseOptimization("amp", daydream.OptimizationParams{})
	if err != nil || opt.Name() != "amp" {
		t.Fatalf("ParseOptimization(amp) = %v, %v", opt, err)
	}
	stacked, err := daydream.ParseOptimization("amp+fusedadam", daydream.OptimizationParams{})
	if err != nil {
		t.Fatal(err)
	}
	if stacked.Name() != "amp+fusedadam" || stacked.Footprint() != daydream.TimingOnly {
		t.Fatalf("parsed stack = %q (%v)", stacked.Name(), stacked.Footprint())
	}
	if _, err := daydream.ParseOptimization("bogus", daydream.OptimizationParams{}); err == nil {
		t.Fatal("unknown registry name accepted")
	}
}

// TestOptDeviceUpgradeNames checks name resolution (presets and
// marketing names) and that errors list every accepted name.
func TestOptDeviceUpgradeNames(t *testing.T) {
	if _, err := daydream.OptDeviceUpgrade("2080ti", "Tesla V100-SXM2-16GB"); err != nil {
		t.Fatal(err)
	}
	_, err := daydream.OptDeviceUpgrade("2080ti", "tpu")
	if err == nil {
		t.Fatal("unknown device accepted")
	}
	for _, name := range daydream.DeviceNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
	if len(daydream.Devices()) != len(daydream.DeviceNames())/2 {
		t.Fatalf("Devices()/DeviceNames() disagree: %d vs %d",
			len(daydream.Devices()), len(daydream.DeviceNames()))
	}
}

// TestSweepWithOptimizationValues runs a mixed Opt battery through the
// sweep at several worker counts and checks it against the sequential
// clone loop (bit-identical, like every other sweep).
func TestSweepWithOptimizationValues(t *testing.T) {
	g := profileGraph(t, "bert-base")
	upgrade, err := daydream.OptDeviceUpgrade("2080ti", "v100")
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []daydream.Scenario{
		{Opt: daydream.Stack()},
		{Opt: daydream.OptAMP()},
		{Opt: daydream.Stack(daydream.OptAMP(), daydream.OptFusedAdam())},
		{Opt: upgrade},
		{Opt: daydream.OptDistributed(daydream.NewTopology(2, 2, 10))},
		{Base: g, Opt: daydream.OptScale("sgemm", 0.5)},
	}
	var want []daydream.SweepResult
	for _, sc := range scenarios {
		_, v, err := daydream.Compare(g, sc.Opt)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, daydream.SweepResult{Name: sc.Opt.Name(), Value: v})
	}
	for _, workers := range []int{0, 1, 3} {
		got, err := daydream.Sweep(g, scenarios, daydream.SweepWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Value != want[i].Value {
				t.Fatalf("workers=%d scenario %q: sweep %v, Compare %v",
					workers, want[i].Name, got[i].Value, want[i].Value)
			}
			if got[i].Name != want[i].Name {
				t.Fatalf("scenario %d name %q, want %q", i, got[i].Name, want[i].Name)
			}
		}
	}
}

// TestStackedSweepRace drives concurrent sweeps of stacked real
// optimizations over one shared profile. Run under -race (the CI does)
// this verifies composed timing-only stacks never write to the shared
// baseline or its memoized layer index.
func TestStackedSweepRace(t *testing.T) {
	g := profileGraph(t, "resnet50")
	stacked := daydream.Stack(daydream.OptAMP(), daydream.OptFusedAdam())
	var scenarios []daydream.Scenario
	for i := 0; i < 8; i++ {
		scenarios = append(scenarios, daydream.Scenario{Opt: stacked})
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := daydream.Sweep(g, scenarios, daydream.SweepWorkers(4)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
