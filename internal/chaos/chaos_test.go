package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/sweep"
	"daydream/internal/trace"
	"daydream/internal/whatif"
)

// baselineGraph profiles a real zoo model so the chaos suite runs over
// the same graphs production sweeps see, layer-mapped so that layer
// what-ifs (P3) apply.
func baselineGraph(t *testing.T) *core.Graph {
	t.Helper()
	m, err := dnn.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	res, err := framework.Run(framework.Config{Model: m, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	core.MapLayers(g, res.Trace.LayerSpans)
	return g
}

// timingOpt wraps a timing edit of the patch as a timing-only value.
func timingOpt(edit func(*core.Patch) error) core.Optimization {
	return core.PatchOpt("timing", core.TimingOnly, edit, nil)
}

func TestCorruptTracesRejectedTyped(t *testing.T) {
	for _, ct := range CorruptTraces() {
		ct := ct
		t.Run(ct.Name, func(t *testing.T) {
			tr, err := trace.ReadJSON(bytes.NewReader(ct.JSON))
			if err == nil {
				t.Fatalf("corrupt trace accepted: %+v", tr)
			}
			if !errors.Is(err, ct.Want) {
				t.Fatalf("err = %v, want %v", err, ct.Want)
			}
		})
	}
}

// TestAdversarialPatchesAcrossTiers drives cyclic and negative-timing
// patches plus panicking callbacks through one sweep touching every
// dispatch tier, asserting typed error rows — and that the shared
// baseline comes out fingerprint-identical with no leaked goroutines.
func TestAdversarialPatchesAcrossTiers(t *testing.T) {
	g := baselineGraph(t)
	fp := Fingerprint(g)
	before := Goroutines()

	shrink := func(factor float64) core.Optimization {
		return core.PatchOpt("shrink", core.TimingOnly, func(p *core.Patch) error {
			for _, task := range p.Base().Select((*core.Task).OnGPU) {
				p.ScaleDuration(task, factor)
			}
			return nil
		}, nil)
	}
	structural := core.PatchOpt("drop-a-kernel", core.Structural, func(p *core.Patch) error {
		kerns := p.Base().Select((*core.Task).OnGPU)
		p.RemoveTask(kerns[len(kerns)/2])
		return nil
	}, nil)

	p3 := whatif.OptP3(whatif.P3Options{Topology: comm.Topology{
		Machines: 4, GPUsPerMachine: 1, NICBandwidth: comm.Gbps(5), IntraBandwidth: 11e9,
	}, SliceBytes: 800 << 10})

	scenarios := []sweep.Scenario{
		// Healthy rows on each tier, bracketing the faults: replay,
		// timing-only (overlay/incremental), structural patch, and a
		// patch over a per-scenario repeated baseline (p3).
		{Name: "replay"},
		{Name: "timing-1", Opt: shrink(0.9)},
		{Name: "timing-2", Opt: shrink(0.8)},
		{Name: "timing-3", Opt: shrink(0.7)},
		{Name: "structural", Opt: structural},
		{Name: "p3", Opt: p3},
		// Faults.
		{Name: "p3-panic", Opt: core.Stack(p3, HalfEditPanicOpt())},
		{Name: "cycle", Opt: core.PatchOpt("cycle", core.Structural, CyclicPatch, nil)},
		{Name: "neg-timing", Opt: core.PatchOpt("neg", core.TimingOnly, NegativeTimingPatch, nil)},
		{Name: "panic-opt", Opt: PanicOpt()},
		{Name: "half-edit-panic", Opt: HalfEditPanicOpt()},
		{Name: "panic-sched", SimOptions: []core.SimOption{core.WithScheduler(&PanicScheduler{AfterPicks: 100})}},
		{Name: "rogue-sched", SimOptions: []core.SimOption{core.WithScheduler(RoguePicker{})}},
		{Name: "panic-measure", Opt: shrink(0.95), Measure: PanicMeasure},
		// Healthy tail re-using the (possibly quarantined) workers.
		{Name: "timing-tail", Opt: shrink(0.9)},
		{Name: "structural-tail", Opt: structural},
		{Name: "replay-tail"},
	}

	results, err := sweep.Run(g, scenarios, sweep.Workers(2))
	if err == nil {
		t.Fatal("sweep with injected faults reported no error")
	}
	byName := map[string]sweep.Result{}
	for _, r := range results {
		byName[r.Name] = r
	}

	if r := byName["cycle"]; !errors.Is(r.Err, core.ErrStalled) {
		t.Fatalf("cycle row: Err = %v, want ErrStalled", r.Err)
	}
	for _, name := range []string{"panic-opt", "half-edit-panic", "p3-panic", "panic-sched", "panic-measure"} {
		if r := byName[name]; !errors.Is(r.Err, sweep.ErrPanic) {
			t.Fatalf("%s row: Err = %v, want ErrPanic", name, r.Err)
		}
	}
	if r := byName["p3"]; r.Tier != sweep.TierPatch {
		t.Fatalf("p3 row ran on tier %q, want %q", r.Tier, sweep.TierPatch)
	}
	if r := byName["rogue-sched"]; r.Err == nil {
		t.Fatal("rogue-sched row: out-of-range pick produced no error")
	}
	// A negative effective timing is simulable garbage-in (documented
	// cold fallback), but it must yield either a value or a typed error
	// — never a crash; and Validate must flag it up front.
	negPatch := core.NewPatch(g)
	if err := NegativeTimingPatch(negPatch); err != nil {
		t.Fatal(err)
	}
	if verr := negPatch.Validate(); !errors.Is(verr, core.ErrNegativeDuration) {
		t.Fatalf("negative-timing patch Validate = %v, want ErrNegativeDuration", verr)
	}

	// Healthy rows — including those after faults on the same workers —
	// match a fault-free run exactly.
	healthy := []string{"replay", "timing-1", "timing-2", "timing-3", "structural", "p3", "timing-tail", "structural-tail", "replay-tail"}
	cleanScens := make([]sweep.Scenario, 0, len(healthy))
	for _, name := range healthy {
		for _, sc := range scenarios {
			if sc.Name == name {
				cleanScens = append(cleanScens, sc)
			}
		}
	}
	want, err := sweep.Run(g, cleanScens, sweep.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range healthy {
		got := byName[name]
		if got.Err != nil {
			t.Fatalf("healthy row %s: Err = %v", name, got.Err)
		}
		if got.Value != want[i].Value {
			t.Fatalf("healthy row %s = %v, clean run %v: fault leaked across scenarios", name, got.Value, want[i].Value)
		}
	}

	// The shared baseline is untouched and no goroutine outlived Run.
	if got := Fingerprint(g); got != fp {
		t.Fatalf("baseline fingerprint changed: %x → %x", fp, got)
	}
	if after := SettledGoroutines(before); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestChaosCancellationUnderLoad cancels a large sweep mid-flight and
// checks the result rows split cleanly into completed and typed
// canceled, with the baseline intact.
func TestChaosCancellationUnderLoad(t *testing.T) {
	g := baselineGraph(t)
	fp := Fingerprint(g)
	before := Goroutines()

	scenarios := make([]sweep.Scenario, 64)
	for i := range scenarios {
		factor := 1.0 - float64(i)/128
		scenarios[i] = sweep.Scenario{
			Name: fmt.Sprintf("s%d", i),
			Opt: timingOpt(func(p *core.Patch) error {
				for _, task := range p.Base().Select((*core.Task).OnGPU) {
					p.ScaleDuration(task, factor)
				}
				return nil
			}),
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	scenarios[5].Measure = func(v core.TaskView, res *core.SimResult) (time.Duration, error) {
		cancel()
		return res.Makespan, nil
	}

	results, err := sweep.Run(g, scenarios, sweep.Workers(4), sweep.WithContext(ctx))
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("Run = %v, want ErrCanceled", err)
	}
	completed, canceled := 0, 0
	for i, r := range results {
		switch {
		case r.Err == nil:
			completed++
		case errors.Is(r.Err, core.ErrCanceled):
			canceled++
		default:
			t.Fatalf("row %d: unexpected error class %v", i, r.Err)
		}
	}
	if completed == 0 || canceled == 0 {
		t.Fatalf("want a mix of completed and canceled rows, got %d/%d", completed, canceled)
	}
	if got := Fingerprint(g); got != fp {
		t.Fatalf("baseline fingerprint changed under cancellation: %x → %x", fp, got)
	}
	if after := SettledGoroutines(before); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestChaosIncrementalTierFaults poisons the incremental tier
// specifically: warm state built, then a panic, then more warm-tier
// scenarios that must match cold simulation bit for bit.
func TestChaosIncrementalTierFaults(t *testing.T) {
	g := baselineGraph(t)

	shrink := func(factor float64) sweep.Scenario {
		return sweep.Scenario{
			Name: fmt.Sprintf("shrink-%v", factor),
			Opt: timingOpt(func(p *core.Patch) error {
				for _, task := range p.Base().Select((*core.Task).OnGPU) {
					p.ScaleDuration(task, factor)
				}
				return nil
			}),
		}
	}
	// Workers(1): scenarios 1..N share one worker; by the third
	// timing-only scenario the worker is on the incremental tier. The
	// panic then lands on warm state, which quarantine discards.
	scenarios := []sweep.Scenario{
		shrink(0.9), shrink(0.8), shrink(0.7), shrink(0.6),
		{Name: "kaboom", Opt: timingOpt(func(p *core.Patch) error { panic("chaos") })},
		shrink(0.5), shrink(0.4),
	}
	results, err := sweep.Run(g, scenarios, sweep.Workers(1))
	if !errors.Is(err, sweep.ErrPanic) {
		t.Fatalf("Run = %v, want ErrPanic", err)
	}
	for i, r := range results {
		if i == 4 {
			continue
		}
		if r.Err != nil {
			t.Fatalf("row %d: Err = %v", i, r.Err)
		}
		// Cold reference for the same delta.
		factor := []float64{0.9, 0.8, 0.7, 0.6, 0, 0.5, 0.4}[i]
		p := core.NewPatch(g)
		for _, task := range g.Select((*core.Task).OnGPU) {
			p.ScaleDuration(task, factor)
		}
		ref, err := p.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != ref.Makespan {
			t.Fatalf("row %d = %v, cold reference %v: warm state survived the panic", i, r.Value, ref.Makespan)
		}
	}
}
