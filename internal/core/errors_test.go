package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// pickFirst is a minimal custom scheduler forcing the scheduled
// (slice-frontier) simulation path.
type pickFirst struct{}

func (pickFirst) Pick(frontier []*Task, ctx *SchedContext) int { return 0 }

// trippingCtx is a context whose Err starts returning context.Canceled
// after trip calls — it sneaks past the entry check to exercise the
// periodic in-loop polls deterministically.
type trippingCtx struct {
	context.Context
	calls, trip int
}

func (c *trippingCtx) Err() error {
	c.calls++
	if c.calls > c.trip {
		return context.Canceled
	}
	return nil
}

func TestPatchCycleIsTyped(t *testing.T) {
	g, ts := chainGraph(t)
	p := NewPatch(g)
	// a → k1 → k2 exists (correlation + sequence); closing k2 → a makes
	// a cycle in the effective view only.
	if err := p.AddDependency(ts[3], ts[0], DepCustom); err != nil {
		t.Fatal(err)
	}

	if err := p.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate = %v, want ErrCycle", err)
	} else {
		var ce *CycleError
		if !errors.As(err, &ce) || len(ce.Members) == 0 {
			t.Fatalf("Validate = %v, want *CycleError with members", err)
		}
	}

	// Heap path: frontier starvation, never a partial schedule.
	res, err := p.Simulate()
	if res != nil || !errors.Is(err, ErrStalled) {
		t.Fatalf("Simulate = (%v, %v), want (nil, ErrStalled)", res, err)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("Simulate error %v is not a *StallError", err)
	}
	if len(se.Blocked) == 0 || se.Executed >= se.Live {
		t.Fatalf("StallError = %+v, want blocked tasks and executed < live", se)
	}

	// Scheduled path: same typed error.
	res, err = p.Simulate(WithScheduler(pickFirst{}))
	if res != nil || !errors.Is(err, ErrStalled) {
		t.Fatalf("scheduled Simulate = (%v, %v), want (nil, ErrStalled)", res, err)
	}

	// The baseline is untouched and still simulates.
	if err := g.Validate(); err != nil {
		t.Fatalf("baseline Validate after patch cycle: %v", err)
	}
	if _, err := g.Simulate(); err != nil {
		t.Fatalf("baseline Simulate after patch cycle: %v", err)
	}
}

func TestGraphCycleIsTyped(t *testing.T) {
	g, ts := chainGraph(t)
	if err := g.AddDependency(ts[3], ts[0], DepCustom); err != nil {
		t.Fatal(err)
	}

	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate = %v, want ErrCycle", err)
	}

	res, err := g.Simulate()
	if res != nil || !errors.Is(err, ErrStalled) {
		t.Fatalf("Simulate = (%v, %v), want (nil, ErrStalled)", res, err)
	}
	res, err = g.Simulate(WithScheduler(pickFirst{}))
	if res != nil || !errors.Is(err, ErrStalled) {
		t.Fatalf("scheduled Simulate = (%v, %v), want (nil, ErrStalled)", res, err)
	}

	o := NewPatch(g)
	res, err = o.Simulate()
	if res != nil || !errors.Is(err, ErrStalled) {
		t.Fatalf("timing patch Simulate = (%v, %v), want (nil, ErrStalled)", res, err)
	}
}

func TestPatchValidateDetectsNegativeTiming(t *testing.T) {
	g, ts := chainGraph(t)
	p := NewPatch(g)
	if err := p.Validate(); err != nil {
		t.Fatalf("clean patch Validate = %v", err)
	}
	p.SetDuration(ts[1], -5)
	if err := p.Validate(); !errors.Is(err, ErrNegativeDuration) {
		t.Fatalf("Validate = %v, want ErrNegativeDuration", err)
	}
	p.SetDuration(ts[1], 5)
	p.SetGap(ts[1], -50)
	if err := p.Validate(); !errors.Is(err, ErrNegativeDuration) {
		t.Fatalf("Validate = %v, want ErrNegativeDuration (dur+gap)", err)
	}
	p.SetGap(ts[1], 0)
	if err := p.Validate(); err != nil {
		t.Fatalf("repaired patch Validate = %v", err)
	}
}

func TestPatchValidateDetectsDanglingEdge(t *testing.T) {
	g, ts := chainGraph(t)
	p := NewPatch(g)
	extra := p.NewTask("extra", ts[0].Kind, CPU(0), 10)
	p.AppendTask(extra)
	if err := p.AddDependency(ts[1], extra, DepCustom); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("clean patch Validate = %v", err)
	}
	// Corrupt the view the way a baseline mutated underneath a bound
	// patch would: mark the edge target removed without unlinking.
	p.removed[extra.ID] = struct{}{}
	if err := p.Validate(); !errors.Is(err, ErrDanglingEdge) {
		t.Fatalf("Validate = %v, want ErrDanglingEdge", err)
	}
}

// cancelable simulate paths: a pre-canceled context yields ErrCanceled
// (matching context.Canceled too) on every tier, promptly.
func TestSimulateCancellation(t *testing.T) {
	g, ts := chainGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	check := func(name string, res *SimResult, err error) {
		t.Helper()
		if res != nil {
			t.Fatalf("%s: got a result despite canceled context", name)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v does not match context.Canceled", name, err)
		}
	}

	res, err := g.Simulate(WithContext(ctx))
	check("graph", res, err)
	res, err = g.Simulate(WithContext(ctx), WithScheduler(pickFirst{}))
	check("graph/scheduled", res, err)

	o := NewPatch(g)
	o.SetDuration(ts[2], 300)
	res, err = o.Simulate(WithContext(ctx))
	check("timing patch", res, err)

	p := NewPatch(g)
	extra := p.NewTask("extra", ts[0].Kind, CPU(0), 10)
	p.AppendTask(extra)
	res, err = p.Simulate(WithContext(ctx))
	check("patch", res, err)

	inc, err := NewIncrementalSim(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err = inc.ReSimulate(o, WithContext(ctx))
	check("incremental", res, err)

	// Deadline flavor.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := g.Simulate(WithContext(dctx)); !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline err = %v, want ErrDeadlineExceeded wrapping context.DeadlineExceeded", err)
	}

	// A live context changes nothing.
	want, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Simulate(WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("live-context Makespan = %v, want %v", got.Makespan, want.Makespan)
	}
}

// The in-loop periodic poll aborts a simulation already past its entry
// check, and leaves the scratch reusable.
func TestSimulateMidFlightCancellation(t *testing.T) {
	g := modelGraph(t, "resnet50")
	if g.NumTasks() <= cancelCheckInterval {
		t.Skipf("model graph too small (%d tasks) to cross the poll interval", g.NumTasks())
	}
	scratch := NewSimScratch()

	// Entry check passes (trip=1 lets the first Err call through), the
	// first in-loop poll at executed==cancelCheckInterval trips.
	tc := &trippingCtx{Context: context.Background(), trip: 1}
	res, err := g.Simulate(WithContext(tc), WithScratch(scratch))
	if res != nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-flight cancel = (%v, %v), want (nil, ErrCanceled)", res, err)
	}

	// The aborted scratch must be clean for reuse.
	want, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Simulate(WithScratch(scratch))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("post-abort reuse Makespan = %v, want %v", got.Makespan, want.Makespan)
	}

	// Scheduled path's poll.
	tc = &trippingCtx{Context: context.Background(), trip: 1}
	res, err = g.Simulate(WithContext(tc), WithScheduler(pickFirst{}), WithScratch(scratch))
	if res != nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("scheduled mid-flight cancel = (%v, %v), want (nil, ErrCanceled)", res, err)
	}
	got, err = g.Simulate(WithScratch(scratch))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("post-abort scheduled reuse Makespan = %v, want %v", got.Makespan, want.Makespan)
	}
}
