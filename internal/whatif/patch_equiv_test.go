package whatif_test

// Structural patch equivalence suite: for every zoo model and every
// structural what-if with a patch form — Distributed (Algorithm 6),
// P3's annotation over its repeated baseline (Algorithm 7), removal-form batchnorm restructuring (Algorithm 5), BlueConnect
// and DGC stacked on Distributed (Algorithms 8 and 12), and MetaFlow
// substitutions (Algorithm 9) — the clone-free patch simulation must
// reproduce the reference, the patch materialized into a private graph
// (its structural journal replayed through the real Graph primitives)
// and cold-simulated, bit for bit:
// same makespan, same start time and duration for every task (baseline
// and appendix IDs alike; Patch.NewTask allocates exactly the IDs a
// clone would have), same per-thread end times and the same critical
// path. A -race sweep drives concurrent structural patches over one
// shared baseline.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"daydream/internal/chaos"
	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/sweep"
	"daydream/internal/whatif"
)

// patchEquivCase names one structural what-if of the suite. Each case
// runs over core.OptBaseline's graph (P3's annotation over the
// Repeat-expanded profile). The cases for g's model come from
// patchEquivCases(g): MetaFlow names layers of the model.
type patchEquivCase struct {
	name string
	opt  core.Optimization
}

func patchEquivCases(g *core.Graph) []patchEquivCase {
	dist := whatif.OptDistributed(whatif.DistributedOptions{Topology: topo4x1(10)})
	var layers []string
	for _, u := range g.Tasks() {
		if u.OnGPU() && u.HasLayer && (len(layers) == 0 || layers[len(layers)-1] != u.Layer) {
			layers = append(layers, u.Layer)
		}
	}
	p3 := whatif.P3Options{Topology: topo4x1(5), SliceBytes: 800 << 10, Rounds: 2}
	fifo := whatif.P3Options{Topology: topo4x1(5), Rounds: 2}
	return []patchEquivCase{
		{name: "distributed", opt: whatif.OptDistributed(whatif.DistributedOptions{Topology: topo4x1(10)})},
		{name: "p3-annotate", opt: whatif.OptP3(p3)},
		{name: "ps-fifo-annotate", opt: whatif.OptP3(fifo)},
		{name: "reconbn-removal", opt: whatif.OptReconBatchnormRemoval(whatif.ReconBatchnormOptions{})},
		{name: "blueconnect", opt: core.Stack(dist, whatif.OptBlueConnect(blueConnect2x2))},
		{name: "dgc", opt: core.Stack(dist, whatif.OptDGC(whatif.DGCOptions{}))},
		{name: "dgc-light", opt: core.Stack(dist, whatif.OptDGC(whatif.DGCOptions{CompressionRatio: 0.3}))},
		{name: "metaflow", opt: whatif.OptMetaFlow([]whatif.Substitution{{
			Remove: layers[1:2],
			Scale:  map[string]float64{layers[2]: 1.15},
		}})},
	}
}

// blueConnect2x2 splits four workers into two dimensions of two.
var blueConnect2x2 = whatif.BlueConnectOptions{
	Factors:     []int{2, 2},
	Bandwidths:  []float64{comm.Gbps(10), 11e9},
	StepLatency: 15 * time.Microsecond,
}

// TestCommPatchesLeaveTracedBaseline applies DGC and BlueConnect to a
// traced multi-GPU run, whose ncclAllReduce tasks are baseline tasks:
// the patch must simulate like its materialized graph simulated cold,
// and leave every baseline task — structure, timings and Bytes — as it
// was.
func TestCommPatchesLeaveTracedBaseline(t *testing.T) {
	m, err := dnn.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	res, err := framework.Run(framework.Config{
		Model:        m,
		Cluster:      &framework.Cluster{Topology: topo4x1(10), Backend: framework.BackendNCCL},
		CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	core.MapLayers(g, res.Trace.LayerSpans)
	fingerprint := chaos.Fingerprint(g)
	bytes := make([]int64, g.IDSpan())
	for _, u := range g.Tasks() {
		bytes[u.ID] = u.Bytes
	}
	for _, tc := range []patchEquivCase{
		{name: "dgc", opt: whatif.OptDGC(whatif.DGCOptions{})},
		{name: "blueconnect", opt: whatif.OptBlueConnect(blueConnect2x2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assertPatchEquivalence(t, g, tc)
			if chaos.Fingerprint(g) != fingerprint {
				t.Fatal("baseline graph changed")
			}
			for _, u := range g.Tasks() {
				if u.Bytes != bytes[u.ID] {
					t.Fatalf("baseline task %v: Bytes %d, was %d", u, u.Bytes, bytes[u.ID])
				}
			}
		})
	}
}

func TestStructuralPatchEquivalenceAcrossZoo(t *testing.T) {
	for _, name := range dnn.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := profile(t, name, framework.PyTorch)
			for _, tc := range patchEquivCases(g) {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					base, apply, err := core.OptBaseline(g, tc.opt)
					if err != nil {
						t.Fatal(err)
					}
					tc.opt = apply
					assertPatchEquivalence(t, base, tc)
				})
			}
		})
	}
}

func assertPatchEquivalence(t *testing.T, g *core.Graph, tc patchEquivCase) {
	t.Helper()
	p := core.NewPatch(g)
	if err := tc.opt.Apply(p); err != nil {
		t.Fatal(err)
	}
	got, err := p.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	assertSameStructure(t, p, got, m, want)
	assertSameSchedule(t, p, got, m, want, true)
}

// assertSameStructure checks a patch view against its materialized
// reference beyond the schedule: the same effective ID span, the same
// live tasks with the same effective durations, and the same per-thread
// completion (including threads that exist only in the patch's
// appendix, e.g. fresh comm channels).
func assertSameStructure(t *testing.T, p *core.Patch, got *core.SimResult, m *core.Graph, want *core.SimResult) {
	t.Helper()
	if p.IDSpan() != m.IDSpan() {
		t.Fatalf("ID span: patch %d, reference %d", p.IDSpan(), m.IDSpan())
	}
	for id := 0; id < m.IDSpan(); id++ {
		mt, pt := m.Task(id), p.Task(id)
		if (mt == nil) != (pt == nil) {
			t.Fatalf("task %d liveness: patch %v, reference %v", id, pt, mt)
		}
		if mt == nil {
			continue
		}
		if gd, wd := got.TaskDuration(pt), want.TaskDuration(mt); gd != wd {
			t.Fatalf("task %d duration: patch %v, reference %v", id, gd, wd)
		}
	}
	if len(got.ThreadEnd) != len(want.ThreadEnd) {
		t.Fatalf("thread-end count: patch %d, reference %d", len(got.ThreadEnd), len(want.ThreadEnd))
	}
	for tid, end := range want.ThreadEnd {
		if got.ThreadEnd[tid] != end {
			t.Fatalf("thread %v end: patch %v, reference %v", tid, got.ThreadEnd[tid], end)
		}
	}
}

// TestOptP3MatchesAnnotatedRepeat pins OptP3 through the sweep to its
// definition: Algorithm 7's annotation recorded on a patch over a
// two-round Repeat of the profile, materialized and cold-simulated,
// measured as the distance between the two rounds' completion
// frontiers. The annotation refuses a baseline that was never
// repeated.
func TestOptP3MatchesAnnotatedRepeat(t *testing.T) {
	g := profile(t, "resnet50", framework.MXNet)
	rep, err := g.Repeat(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, slice := range []int64{800 << 10, 0} {
		opts := whatif.P3Options{Topology: topo4x1(5), SliceBytes: slice, Rounds: 2}
		swept, err := sweep.Run(g, []sweep.Scenario{{Opt: whatif.OptP3(opts)}})
		if err != nil {
			t.Fatal(err)
		}
		p := core.NewPatch(rep)
		if err := whatif.P3Annotate(p, opts); err != nil {
			t.Fatal(err)
		}
		m, err := p.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		want := core.RoundSpan(m, res, 1) - core.RoundSpan(m, res, 0)
		if swept[0].Value != want || swept[0].Tier != sweep.TierPatch {
			t.Fatalf("slice=%d: sweep %v on tier %s, annotated repeat %v", slice, swept[0].Value, swept[0].Tier, want)
		}
	}
	p := core.NewPatch(g)
	if err := whatif.P3Annotate(p, whatif.P3Options{Topology: topo4x1(5), Rounds: 2}); err == nil {
		t.Fatal("P3Annotate accepted a single-round baseline")
	}
}

// TestConcurrentStructuralPatchSweepRace fans structural patch
// scenarios (Distributed grids and removal-form batchnorm) over one
// shared baseline from several goroutines at once. Run under -race
// (the CI does) this verifies the structural copy-on-write sharing
// model: no worker ever writes to the shared graph or its memoized
// layer index.
func TestConcurrentStructuralPatchSweepRace(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	var scenarios []sweep.Scenario
	for i, gbps := range []float64{5, 10, 20, 40} {
		scenarios = append(scenarios, sweep.Scenario{
			Name: fmt.Sprintf("dist%d", i),
			Opt:  whatif.OptDistributed(whatif.DistributedOptions{Topology: topo4x1(gbps)}),
		})
	}
	scenarios = append(scenarios, sweep.Scenario{
		Opt: whatif.OptReconBatchnormRemoval(whatif.ReconBatchnormOptions{}),
	})
	want, err := sweep.Run(g, scenarios, sweep.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := sweep.Run(g, scenarios, sweep.Workers(3))
			if err != nil {
				t.Error(err)
				return
			}
			for j := range want {
				if got[j].Value != want[j].Value {
					t.Errorf("scenario %d: concurrent %v, sequential %v", j, got[j].Value, want[j].Value)
				}
			}
		}()
	}
	wg.Wait()
}
