package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"daydream/internal/core"
)

// leakCheck snapshots the goroutine count and returns an assertion that
// the count came back down — the worker-hygiene guarantee that no sweep
// goroutine outlives Run, even after cancellation or a panic.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		var after int
		for i := 0; i < 100; i++ {
			after = runtime.NumGoroutine()
			if after <= before {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before Run, %d after\n%s", before, after, buf[:n])
	}
}

// shrinkScenario is a timing-only (patch-tier) scenario.
func shrinkScenario(name string, factor float64) Scenario {
	return Scenario{
		Name: name,
		Opt: timingOpt(func(p *core.Patch) error {
			for _, task := range p.Base().Select((*core.Task).OnGPU) {
				p.ScaleDuration(task, factor)
			}
			return nil
		}),
	}
}

func TestSweepPreCanceledContext(t *testing.T) {
	checkLeaks := leakCheck(t)
	g := testGraph(30)
	var scenarios []Scenario
	for i := 0; i < 16; i++ {
		scenarios = append(scenarios, shrinkScenario(fmt.Sprintf("s%d", i), 0.9))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	results, err := Run(g, scenarios, Workers(4), WithContext(ctx))
	if err == nil || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("Run = %v, want ErrCanceled", err)
	}
	if len(results) != len(scenarios) {
		t.Fatalf("got %d rows, want %d (cancellation must not drop rows)", len(results), len(scenarios))
	}
	for i, r := range results {
		if !errors.Is(r.Err, core.ErrCanceled) || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("row %d: Err = %v, want ErrCanceled wrapping context.Canceled", i, r.Err)
		}
		if r.Name != scenarios[i].Name {
			t.Fatalf("row %d named %q, want %q", i, r.Name, scenarios[i].Name)
		}
	}
	checkLeaks()
}

func TestSweepCancelMidSweep(t *testing.T) {
	checkLeaks := leakCheck(t)
	g := testGraph(30)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var scenarios []Scenario
	for i := 0; i < 12; i++ {
		sc := shrinkScenario(fmt.Sprintf("s%d", i), 1.0-float64(i)/32)
		if i == 3 {
			// Cancel from inside scenario 3's measurement; with one
			// worker, everything after it must come back typed-canceled.
			sc.Measure = func(v core.TaskView, res *core.SimResult) (time.Duration, error) {
				cancel()
				return res.Makespan, nil
			}
		}
		scenarios = append(scenarios, sc)
	}

	results, err := Run(g, scenarios, Workers(1), WithContext(ctx))
	if err == nil || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("Run = %v, want ErrCanceled", err)
	}
	for i, r := range results {
		if i <= 3 {
			if r.Err != nil {
				t.Fatalf("row %d (before cancel): Err = %v", i, r.Err)
			}
		} else if !errors.Is(r.Err, core.ErrCanceled) {
			t.Fatalf("row %d (after cancel): Err = %v, want ErrCanceled", i, r.Err)
		}
	}
	checkLeaks()
}

func TestSweepDeadline(t *testing.T) {
	g := testGraph(30)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	results, err := Run(g, []Scenario{shrinkScenario("s0", 0.9)}, WithContext(ctx))
	if err == nil || !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("Run = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("row 0: Err = %v, want context.DeadlineExceeded", results[0].Err)
	}
}

func TestSweepFailFast(t *testing.T) {
	g := testGraph(30)
	boom := errors.New("boom")
	var scenarios []Scenario
	ran := make([]bool, 12)
	for i := 0; i < 12; i++ {
		i := i
		sc := shrinkScenario(fmt.Sprintf("s%d", i), 0.9)
		inner := sc.Opt
		sc.Opt = core.PatchOpt(sc.Name, core.TimingOnly, func(p *core.Patch) error {
			ran[i] = true
			if i == 2 {
				return boom
			}
			return inner.Apply(p)
		}, nil)
		scenarios = append(scenarios, sc)
	}

	results, err := Run(g, scenarios, Workers(1), FailFast())
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the triggering error", err)
	}
	if !errors.Is(results[2].Err, boom) {
		t.Fatalf("row 2: Err = %v, want boom", results[2].Err)
	}
	for i := 3; i < 12; i++ {
		if ran[i] {
			t.Fatalf("scenario %d ran despite FailFast", i)
		}
		if !errors.Is(results[i].Err, core.ErrCanceled) {
			t.Fatalf("row %d: Err = %v, want ErrCanceled", i, results[i].Err)
		}
	}

	// Default policy: collect-all — everything runs, same trigger error.
	for i := range ran {
		ran[i] = false
	}
	results, err = Run(g, scenarios, Workers(1))
	if !errors.Is(err, boom) {
		t.Fatalf("collect-all Run = %v, want boom", err)
	}
	for i := 0; i < 12; i++ {
		if !ran[i] {
			t.Fatalf("collect-all: scenario %d did not run", i)
		}
		if i != 2 && results[i].Err != nil {
			t.Fatalf("collect-all row %d: Err = %v", i, results[i].Err)
		}
	}
}

// panicSched panics inside Simulate's Pick, exercising recovery around
// the scheduler callback.
type panicSched struct{}

func (panicSched) Pick(frontier []*core.Task, ctx *core.SchedContext) int {
	panic("scheduler gone rogue")
}

func TestSweepPanicIsolation(t *testing.T) {
	checkLeaks := leakCheck(t)
	g := testGraph(40)

	clean := make([]Scenario, 0, 10)
	for i := 0; i < 10; i++ {
		clean = append(clean, shrinkScenario(fmt.Sprintf("s%d", i), 1.0-float64(i)/32))
	}
	want, err := Run(g, clean, Workers(1))
	if err != nil {
		t.Fatal(err)
	}

	// The same scenarios with panics injected mid-list: a panicking
	// transform, a panicking scheduler, and a panicking measurer, all
	// on the one worker whose buffers they poison.
	faults := []Scenario{
		{Name: "panic-transform", Opt: timingOpt(func(p *core.Patch) error { panic("bad transform") })},
		{Name: "panic-sched", SimOptions: []core.SimOption{core.WithScheduler(panicSched{})}},
		{Name: "panic-measure", Opt: clean[0].Opt,
			Measure: func(v core.TaskView, res *core.SimResult) (time.Duration, error) { panic("bad measure") }},
	}
	mixed := make([]Scenario, 0, len(clean)+len(faults))
	mixed = append(mixed, clean[:5]...)
	mixed = append(mixed, faults...)
	mixed = append(mixed, clean[5:]...)

	results, err := Run(g, mixed, Workers(1))
	if err == nil || !errors.Is(err, ErrPanic) {
		t.Fatalf("Run = %v, want ErrPanic", err)
	}
	for fi := range faults {
		r := results[5+fi]
		if !errors.Is(r.Err, ErrPanic) {
			t.Fatalf("fault row %q: Err = %v, want ErrPanic", r.Name, r.Err)
		}
		var pe *PanicError
		if !errors.As(r.Err, &pe) || len(pe.Stack) == 0 {
			t.Fatalf("fault row %q: error %v carries no stack", r.Name, r.Err)
		}
		if r.Name != faults[fi].Name {
			t.Fatalf("fault row named %q, want %q", r.Name, faults[fi].Name)
		}
	}
	// Bit-equivalence across the quarantine: every clean scenario —
	// including those evaluated on the same worker after each panic —
	// matches the fault-free sweep exactly.
	for i := 0; i < 5; i++ {
		if results[i].Err != nil || results[i].Value != want[i].Value {
			t.Fatalf("pre-fault row %d = (%v, %v), want (%v, nil)", i, results[i].Value, results[i].Err, want[i].Value)
		}
	}
	for i := 5; i < 10; i++ {
		got := results[i+len(faults)]
		if got.Err != nil || got.Value != want[i].Value {
			t.Fatalf("post-fault row %d = (%v, %v), want (%v, nil): worker state survived quarantine poisoned", i, got.Value, got.Err, want[i].Value)
		}
	}
	checkLeaks()
}

func TestSweepPanicIsolationAcrossTiers(t *testing.T) {
	g := testGraph(40)
	// A structural patch scenario and one over a repeated baseline
	// (both on the patch tier) bracketing a panic, verifying quarantine
	// on the structural paths too.
	structural := Scenario{
		Name: "structural",
		Opt: core.PatchOpt("drop-first-kernel", core.Structural, func(p *core.Patch) error {
			kerns := p.Base().Select((*core.Task).OnGPU)
			p.RemoveTask(kerns[0])
			return nil
		}, nil),
	}
	cloneSc := Scenario{Name: "rounds", Opt: roundsOpt{insertCommOpt(time.Millisecond), 2}}
	panicSc := Scenario{Name: "kaboom", Opt: timingOpt(func(p *core.Patch) error { panic("x") })}

	want, err := Run(g, []Scenario{structural, cloneSc}, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(g, []Scenario{structural, panicSc, cloneSc, structural}, Workers(1))
	if err == nil || !errors.Is(err, ErrPanic) {
		t.Fatalf("Run = %v, want ErrPanic", err)
	}
	if got[0].Err != nil || got[0].Value != want[0].Value {
		t.Fatalf("structural row = (%v, %v), want (%v, nil)", got[0].Value, got[0].Err, want[0].Value)
	}
	if got[2].Err != nil || got[2].Value != want[1].Value {
		t.Fatalf("post-panic rounds row = (%v, %v), want (%v, nil)", got[2].Value, got[2].Err, want[1].Value)
	}
	if got[3].Err != nil || got[3].Value != want[0].Value {
		t.Fatalf("post-panic structural row = (%v, %v), want (%v, nil)", got[3].Value, got[3].Err, want[0].Value)
	}
}
