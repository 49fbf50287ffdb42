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
// dependencies. At every stage (plain graph, timing-only patch,
// structural patch) these must agree bit for bit:
//
//   - the default heap loop,
//   - the scheduled loop (wrappedEarliest, the same policy through Pick),
//   - the heap loop over a reused scratch and result buffer,
//   - materializing the view and simulating the private graph cold,
//   - referenceSimulate over the materialized graph,
//
// a LIFO policy over the view must agree with the same policy over the
// materialized graph, and a KeyedScheduler on the heap loop must agree
// with the same policy through Pick over the materialized graph.
//
// On repeated graphs every view is also simulated with WithRoundWindow
// and checked against the unwindowed run over the retained window.
//
// Each input also builds a superseded-baseline patch (see
// checkSupersededAgrees), the one shape on which the heap loop skips
// the baseline's tasks.
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
		checkViewsAgree(t, "timing patch", p, scratch, buf)

		for i := 0; i < int(structEdits)%24; i++ {
			randomStructuralEdit(rng, p, rounds)
		}
		checkViewsAgree(t, "patch", p, scratch, buf)
		// The buffer last held a patch result with effective timings; a
		// plain graph simulation into it must not inherit them.
		checkViewsAgree(t, "graph after patch", g, scratch, buf)

		if rounds > 1 {
			for _, v := range []TaskView{g, p} {
				checkWindowAgrees(t, v, 1+rng.Intn(rounds-1))
			}
		}

		checkSupersededAgrees(t, rng, g, supersededVariant(rng.Intn(5)), scratch, buf)
	})
}

// supersededVariant selects how checkSupersededAgrees breaks (or keeps)
// the conditions under which a static-order run skips the baseline.
type supersededVariant int

const (
	supersededPure         supersededVariant = iota // every condition holds
	supersededBaselineEdge                          // one edge joins the appendix to the baseline
	supersededSharedThread                          // one appendix task runs on a baseline thread
	supersededTimedTask                             // one baseline task keeps a non-zero duration
	supersededCyclicBase                            // the baseline itself holds a cycle
)

// checkSupersededAgrees zeroes the whole baseline with SupersedeBaseline
// and appends a random DAG on fresh threads, broken according to the
// variant, then holds every path to the materialized graph. Only the
// pure variant may skip the baseline, and it must.
func checkSupersededAgrees(t *testing.T, rng *rand.Rand, g *Graph, variant supersededVariant, scratch *SimScratch, buf *SimResult) {
	t.Helper()
	base := g.Tasks()
	if variant == supersededCyclicBase {
		g = g.Clone()
		base = g.Tasks()
		i := rng.Intn(len(base) - 1)
		a, b := base[i], base[i+1+rng.Intn(len(base)-1-i)]
		_ = g.AddDependency(b, a, DepCustom)
		_ = g.AddDependency(a, b, DepCustom)
	}
	p := NewPatch(g)
	p.SupersedeBaseline()
	fresh := []ThreadID{Stream(100), Stream(101), Channel("fresh"), CPU(100)}
	var added []*Task
	for i, n := 0, 1+rng.Intn(12); i < n; i++ {
		tid := fresh[rng.Intn(len(fresh))]
		nt := p.NewTask("new", kindFor(tid), tid, randomDuration(rng))
		nt.Round = base[len(base)-1].Round
		nt.Priority = rng.Intn(10) - 5
		if rng.Intn(3) != 0 {
			p.AppendTask(nt)
		}
		if rng.Intn(3) == 0 {
			p.SetGap(nt, randomDuration(rng)/4)
		}
		if len(added) > 0 && rng.Intn(2) == 0 {
			_ = p.AddDependency(added[rng.Intn(len(added))], nt, DepCustom)
		}
		added = append(added, nt)
	}
	switch variant {
	case supersededBaselineEdge:
		a, b := base[rng.Intn(len(base))], added[rng.Intn(len(added))]
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		_ = p.AddDependency(a, b, DepCustom)
	case supersededSharedThread:
		nt := p.NewTask("shared", kindFor(base[0].Thread), base[0].Thread, randomDuration(rng))
		nt.Round = added[0].Round
		if rng.Intn(2) == 0 {
			p.AppendTask(nt)
		}
	case supersededTimedTask:
		p.SetDuration(base[rng.Intn(len(base))], 1+randomDuration(rng))
	}
	if got, want := skipsBaseline(p), variant == supersededPure; got != want {
		t.Fatalf("superseded variant %d: baseline skip %v, want %v", variant, got, want)
	}
	checkViewsAgree(t, fmt.Sprintf("superseded variant %d", variant), p, scratch, buf)
}

// skipsBaseline reports whether a default-policy simulation of p would
// skip its baseline.
func skipsBaseline(p *Patch) bool {
	so, err := newSimOptions(nil, nil)
	if err != nil {
		panic(err)
	}
	return p.compile(&so).skip.ids == len(p.base.tasks)
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
	// A class outside [0, MaxClass] sends the whole run to Pick.
	keyed, misfit := classByID{}, classByID{misfit: 7}
	paths := []struct {
		name  string
		opts  []SimOption
		keyed Scheduler // when set, the run is compared with this policy through Pick
	}{
		{"heap", nil, nil},
		{"scheduled", []SimOption{WithScheduler(wrappedEarliest{})}, nil},
		{"reused", []SimOption{WithScratch(scratch), WithResultBuffer(buf)}, nil},
		{"reused scheduled", []SimOption{WithScheduler(wrappedEarliest{}), WithScratch(scratch), WithResultBuffer(buf)}, nil},
		{"keyed", []SimOption{WithScheduler(keyed)}, keyed},
		{"reused keyed", []SimOption{WithScheduler(keyed), WithScratch(scratch), WithResultBuffer(buf)}, keyed},
		{"keyed misfit", []SimOption{WithScheduler(misfit)}, misfit},
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
		want := cold
		if path.keyed != nil {
			if want, err = m.Simulate(WithScheduler(pickOnly{path.keyed})); err != nil {
				t.Fatalf("%s/%s through Pick: %v", stage, path.name, err)
			}
		}
		if err := sameViewResult(v, m, res, want); err != nil {
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

// classByID is a keyed policy whose class is the task ID modulo 3, so it
// reorders ties the default policy breaks by priority. With misfit set,
// every misfit-th ID gets class -1, which does not fit the packed key.
type classByID struct{ misfit int }

func (c classByID) Class(t *Task) int {
	if c.misfit > 0 && t.ID%c.misfit == 0 {
		return -1
	}
	return t.ID % 3
}

func (c classByID) Pick(frontier []*Task, ctx *SchedContext) int {
	best := -1
	var bestT time.Duration
	var bestClass, bestPrio int
	for i, t := range frontier {
		et, class, prio := ctx.EffStart(t), c.Class(t), ctx.Priority(t)
		if best < 0 || et < bestT || et == bestT && (class < bestClass ||
			class == bestClass && (prio > bestPrio || prio == bestPrio && t.ID < frontier[best].ID)) {
			best, bestT, bestClass, bestPrio = i, et, class, prio
		}
	}
	return best
}

// pickOnly hides a policy's Class, so the simulator must run it through
// Pick.
type pickOnly struct{ s Scheduler }

func (p pickOnly) Pick(frontier []*Task, ctx *SchedContext) int { return p.s.Pick(frontier, ctx) }

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
