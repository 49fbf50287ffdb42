package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// FuzzSimulateViewsAgree is the differential harness of the simulation
// engine. Each input builds a random DAG (repeated into rounds when the
// input asks for it), layers random timing and priority edits on it, then
// random structural deltas — new tasks placed by AppendTask, InsertAfter
// or InsertBefore (or left unplaced), removals, and added or removed
// dependencies. At every stage (plain graph, timing overlay, structural
// patch) these must agree bit for bit:
//
//   - the default heap loop,
//   - the scheduled loop (wrappedEarliest, the same policy through Pick),
//   - the heap loop over a reused scratch and result buffer,
//   - materializing the view and simulating the private graph cold,
//   - referenceSimulate over the materialized graph,
//
// and a LIFO policy over the view must agree with the same policy over
// the materialized graph.
//
// On repeated graphs every view is also simulated with WithRoundWindow
// and checked against the unwindowed run over the retained window.
func FuzzSimulateViewsAgree(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed*11), uint8(seed*5))
	}
	f.Fuzz(func(t *testing.T, seed int64, timingEdits, structEdits uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng)
		rounds := 1 + rng.Intn(4)
		if rounds > 1 {
			rg, err := g.Repeat(rounds)
			if err != nil {
				t.Fatal(err)
			}
			g = rg
		}
		scratch, buf := NewSimScratch(), &SimResult{}
		checkViewsAgree(t, "graph", g, scratch, buf)

		p := NewPatch(g)
		base := g.Tasks()
		for i := 0; i < int(timingEdits); i++ {
			u := base[rng.Intn(len(base))]
			switch rng.Intn(4) {
			case 0:
				p.SetDuration(u, randomDuration(rng))
			case 1:
				p.SetGap(u, randomDuration(rng)/4)
			case 2:
				p.SetPriority(u, rng.Intn(10)-5)
			default:
				p.ScaleDuration(u, 0.25+rng.Float64())
			}
		}
		checkViewsAgree(t, "overlay", p.Timing(), scratch, buf)
		checkViewsAgree(t, "timing patch", p, scratch, buf)

		for i := 0; i < int(structEdits)%24; i++ {
			randomStructuralEdit(rng, p, rounds)
		}
		checkViewsAgree(t, "patch", p, scratch, buf)
		// The buffer last held a patch result with effective timings; a
		// plain graph simulation into it must not inherit them.
		checkViewsAgree(t, "graph after patch", g, scratch, buf)

		if rounds > 1 {
			for _, v := range []TaskView{g, p.Timing(), p} {
				checkWindowAgrees(t, v, 1+rng.Intn(rounds-1))
			}
		}
	})
}

// randomDuration draws a non-negative task duration.
func randomDuration(rng *rand.Rand) time.Duration {
	return time.Duration(rng.Intn(5000)) * time.Microsecond
}

// randomStructuralEdit applies one random structural primitive to p.
// New tasks join the last round, so a repeated baseline's patch stays
// round-major and windowable. Added dependencies mostly point forward in
// ID order; the occasional arbitrary one may close a cycle, which every
// path must then report as the same stall.
func randomStructuralEdit(rng *rand.Rand, p *Patch, rounds int) {
	live := p.Tasks()
	if len(live) == 0 {
		return
	}
	pick := func() *Task { return live[rng.Intn(len(live))] }
	switch rng.Intn(5) {
	case 0, 1:
		anchor := pick()
		nt := p.NewTask("new", kindFor(anchor.Thread), anchor.Thread, randomDuration(rng))
		nt.Round = rounds - 1
		nt.Priority = rng.Intn(10) - 5
		switch rng.Intn(4) {
		case 0:
			p.AppendTask(nt)
		case 1:
			_ = p.InsertAfter(anchor, nt)
		case 2:
			_ = p.InsertBefore(anchor, nt)
		}
		if rng.Intn(2) == 0 {
			p.SetGap(nt, randomDuration(rng)/4)
		}
	case 2:
		p.RemoveTask(pick())
	case 3:
		a, b := pick(), pick()
		if a.ID > b.ID && rng.Intn(8) != 0 {
			a, b = b, a
		}
		_ = p.AddDependency(a, b, DepCustom)
	default:
		a := pick()
		if cs := p.Children(a); len(cs) > 0 {
			p.RemoveDependency(a, cs[rng.Intn(len(cs))])
		}
	}
}

// materializeView returns the private graph equivalent to the view.
func materializeView(v TaskView) (*Graph, error) {
	switch view := v.(type) {
	case *Graph:
		return view.Clone(), nil
	case *Overlay:
		return view.Materialize(), nil
	case *Patch:
		return view.Materialize()
	}
	panic("unknown view type")
}

// checkViewsAgree simulates v on every path and fails unless all agree
// with the cold simulation of its materialized graph.
func checkViewsAgree(t *testing.T, stage string, v TaskView, scratch *SimScratch, buf *SimResult) {
	t.Helper()
	m, err := materializeView(v)
	if err != nil {
		t.Fatalf("%s: materialize: %v", stage, err)
	}
	cold, coldErr := m.Simulate()
	ref, refErr := referenceSimulate(m)
	paths := []struct {
		name string
		opts []SimOption
	}{
		{"heap", nil},
		{"scheduled", []SimOption{WithScheduler(wrappedEarliest{})}},
		{"reused", []SimOption{WithScratch(scratch), WithResultBuffer(buf)}},
		{"reused scheduled", []SimOption{WithScheduler(wrappedEarliest{}), WithScratch(scratch), WithResultBuffer(buf)}},
	}
	if coldErr != nil {
		var want *StallError
		if !errors.As(coldErr, &want) {
			t.Fatalf("%s: cold simulation: %v", stage, coldErr)
		}
		if refErr == nil {
			t.Fatalf("%s: reference simulated a graph the engine stalls on", stage)
		}
		for _, path := range paths {
			_, err := simulateView(v, path.opts...)
			var got *StallError
			if !errors.As(err, &got) {
				t.Fatalf("%s/%s: got %v, want a stall like %v", stage, path.name, err, coldErr)
			}
			if got.Executed != want.Executed || got.Live != want.Live || fmt.Sprint(got.Blocked) != fmt.Sprint(want.Blocked) {
				t.Fatalf("%s/%s: stall %+v, materialized %+v", stage, path.name, got, want)
			}
		}
		return
	}
	if refErr != nil {
		t.Fatalf("%s: reference: %v", stage, refErr)
	}
	if err := sameResult(m, ref, cold); err != nil {
		t.Fatalf("%s: reference vs cold: %v", stage, err)
	}
	for _, path := range paths {
		res, err := simulateView(v, path.opts...)
		if err != nil {
			t.Fatalf("%s/%s: %v", stage, path.name, err)
		}
		if len(res.Start) != v.IDSpan() {
			t.Fatalf("%s/%s: %d starts for ID span %d", stage, path.name, len(res.Start), v.IDSpan())
		}
		if err := sameViewResult(v, m, res, cold); err != nil {
			t.Fatalf("%s/%s: %v", stage, path.name, err)
		}
	}
	// A LIFO policy sees the frontier in the order tasks became ready, so
	// its pick order over the view must equal its pick order over the
	// materialized graph: that pins the order of every effective child
	// list, which start times alone rarely reveal.
	var coldPicks, picks lifoRecorder
	lifoCold, err := m.Simulate(WithScheduler(&coldPicks))
	if err != nil {
		t.Fatalf("%s: cold lifo: %v", stage, err)
	}
	lifo, err := simulateView(v, WithScheduler(&picks))
	if err != nil {
		t.Fatalf("%s/lifo: %v", stage, err)
	}
	if err := sameViewResult(v, m, lifo, lifoCold); err != nil {
		t.Fatalf("%s/lifo: %v", stage, err)
	}
	if fmt.Sprint(picks) != fmt.Sprint(coldPicks) {
		t.Fatalf("%s/lifo: picked %v, materialized %v", stage, picks, coldPicks)
	}
}

// lifoRecorder always picks the newest frontier task and records the
// IDs it picks.
type lifoRecorder []int

func (r *lifoRecorder) Pick(frontier []*Task, _ *SchedContext) int {
	*r = append(*r, frontier[len(frontier)-1].ID)
	return len(frontier) - 1
}

// sameResult compares two results over one graph's live tasks: makespan,
// every start, and the exact ThreadEnd map.
func sameResult(g *Graph, got, want *SimResult) error {
	if got.Makespan != want.Makespan {
		return fmt.Errorf("makespan %v, want %v", got.Makespan, want.Makespan)
	}
	for _, task := range g.Tasks() {
		if got.Start[task.ID] != want.Start[task.ID] {
			return fmt.Errorf("task %v starts at %v, want %v", task, got.Start[task.ID], want.Start[task.ID])
		}
	}
	return sameThreadEnds(got.ThreadEnd, want.ThreadEnd)
}

// sameViewResult compares a view's result with the cold result of its
// materialized graph m, including the effective timings the view's
// result reports for every task.
func sameViewResult(v TaskView, m *Graph, got, want *SimResult) error {
	if err := sameResult(m, got, want); err != nil {
		return err
	}
	for _, mt := range m.Tasks() {
		vt := v.Task(mt.ID)
		if vt == nil {
			return fmt.Errorf("task #%d missing from the view", mt.ID)
		}
		if d := got.TaskDuration(vt); d != mt.Duration {
			return fmt.Errorf("task %v duration %v, want %v", vt, d, mt.Duration)
		}
		if gp := got.TaskGap(vt); gp != mt.Gap {
			return fmt.Errorf("task %v gap %v, want %v", vt, gp, mt.Gap)
		}
	}
	return nil
}

func sameThreadEnds(got, want map[ThreadID]time.Duration) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d thread ends, want %d", len(got), len(want))
	}
	for tid, end := range want {
		if g, ok := got[tid]; !ok || g != end {
			return fmt.Errorf("thread %v ends at %v, want %v", tid, g, end)
		}
	}
	return nil
}

// checkWindowAgrees simulates v windowed, on the heap and the scheduled
// loop, and fails unless each matches the unwindowed run on everything
// the window retains.
func checkWindowAgrees(t *testing.T, v TaskView, window int) {
	t.Helper()
	full, err := simulateView(v)
	if err != nil {
		return // stalls are checked unwindowed
	}
	for _, opts := range [][]SimOption{nil, {WithScheduler(wrappedEarliest{})}} {
		win, err := simulateView(v, append(opts, WithRoundWindow(window))...)
		if err != nil {
			t.Fatalf("windowed %T: %v", v, err)
		}
		if !win.Windowed() || len(win.Start) != 0 {
			t.Fatalf("windowed %T: result not windowed", v)
		}
		if win.Makespan != full.Makespan {
			t.Fatalf("windowed %T: makespan %v, want %v", v, win.Makespan, full.Makespan)
		}
		if err := sameThreadEnds(win.ThreadEnd, full.ThreadEnd); err != nil {
			t.Fatalf("windowed %T: %v", v, err)
		}
		for r, s := range win.Summaries() {
			if want := RoundSpan(v, full, r); s.End != want {
				t.Fatalf("windowed %T: round %d ends at %v, want %v", v, r, s.End, want)
			}
		}
		retired := win.RetiredRounds()
		for _, task := range v.Tasks() {
			start, ok := win.StartOf(task)
			if ok != (task.Round >= retired) {
				t.Fatalf("windowed %T: task %v of round %d readable=%v with %d rounds retired", v, task, task.Round, ok, retired)
			}
			if !ok {
				continue
			}
			if start != full.Start[task.ID] || win.TaskDuration(task) != full.TaskDuration(task) || win.TaskGap(task) != full.TaskGap(task) {
				t.Fatalf("windowed %T: task %v retained as (%v, %v, %v), want (%v, %v, %v)", v, task,
					start, win.TaskDuration(task), win.TaskGap(task),
					full.Start[task.ID], full.TaskDuration(task), full.TaskGap(task))
			}
		}
	}
}
