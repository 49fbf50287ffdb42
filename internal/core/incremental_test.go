package core

import (
	"math/rand"
	"testing"
	"time"
)

// assertSameSim compares an incremental result against a cold one bit
// for bit: makespan, every start, every thread end, and the effective
// timings of every live task.
func assertSameSim(t *testing.T, v TaskView, got, want *SimResult) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Fatalf("makespan: incremental %v, cold %v", got.Makespan, want.Makespan)
	}
	if len(got.Start) != len(want.Start) {
		t.Fatalf("start length: incremental %d, cold %d", len(got.Start), len(want.Start))
	}
	for id := range want.Start {
		if got.Start[id] != want.Start[id] {
			t.Fatalf("task %d start: incremental %v, cold %v", id, got.Start[id], want.Start[id])
		}
	}
	if len(got.ThreadEnd) != len(want.ThreadEnd) {
		t.Fatalf("thread-end count: incremental %d, cold %d", len(got.ThreadEnd), len(want.ThreadEnd))
	}
	for tid, end := range want.ThreadEnd {
		if got.ThreadEnd[tid] != end {
			t.Fatalf("thread %v end: incremental %v, cold %v", tid, got.ThreadEnd[tid], end)
		}
	}
	for _, task := range v.Tasks() {
		if gd, wd := got.TaskDuration(task), want.TaskDuration(task); gd != wd {
			t.Fatalf("task %d duration: incremental %v, cold %v", task.ID, gd, wd)
		}
		if gg, wg := got.TaskGap(task), want.TaskGap(task); gg != wg {
			t.Fatalf("task %d gap: incremental %v, cold %v", task.ID, gg, wg)
		}
	}
}

// TestIncrementalRandomDeltasZooModel is the randomized convergence
// test of the incremental engine on a real profiled graph: k random
// duration (and gap) edits, k ∈ {1, 4, 64}, must re-simulate
// bit-identically to a cold patch simulation.
func TestIncrementalRandomDeltasZooModel(t *testing.T) {
	g := modelGraph(t, "resnet50")
	sim, err := NewIncrementalSim(g)
	if err != nil {
		t.Fatal(err)
	}
	tasks := g.Tasks()
	rng := rand.New(rand.NewSource(42))
	buf := &SimResult{}
	o := NewPatch(g)
	for _, k := range []int{1, 4, 64} {
		for round := 0; round < 8; round++ {
			o.Reset(g)
			for i := 0; i < k; i++ {
				task := tasks[rng.Intn(len(tasks))]
				switch rng.Intn(3) {
				case 0:
					o.SetDuration(task, time.Duration(rng.Intn(4000))*time.Microsecond)
				case 1:
					o.SetGap(task, time.Duration(rng.Intn(300))*time.Microsecond)
				default:
					o.ScaleDuration(task, 0.25+rng.Float64()*2)
				}
			}
			got, err := sim.ReSimulate(o, WithResultBuffer(buf))
			if err != nil {
				t.Fatal(err)
			}
			if sim.LastFellBack() {
				t.Fatalf("k=%d round=%d: fell back on a forced-thread graph", k, round)
			}
			want, err := o.Simulate()
			if err != nil {
				t.Fatal(err)
			}
			assertSameSim(t, o, got, want)
		}
	}
}

// TestIncrementalRandomDAGs drives the engine over random multi-thread
// DAGs (whose threads are still dependency-forced: AppendTask links
// consecutive thread tasks) with random sparse deltas.
func TestIncrementalRandomDAGs(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng)
		sim, err := NewIncrementalSim(g)
		if err != nil {
			t.Fatal(err)
		}
		tasks := g.Tasks()
		o := NewPatch(g)
		for round := 0; round < 6; round++ {
			o.Reset(g)
			for i := rng.Intn(4) + 1; i > 0; i-- {
				task := tasks[rng.Intn(len(tasks))]
				o.SetDuration(task, time.Duration(rng.Intn(5000))*time.Microsecond)
			}
			got, err := sim.ReSimulate(o)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			want, err := o.Simulate()
			if err != nil {
				t.Fatal(err)
			}
			assertSameSim(t, o, got, want)
		}
	}
}

// TestIncrementalConeRegression pins the sublinearity claim: a delta
// touching the last task of the critical path recomputes only its
// affected cone, not the whole graph.
func TestIncrementalConeRegression(t *testing.T) {
	g := modelGraph(t, "resnet50")
	sim, err := NewIncrementalSim(g)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	path := CriticalPath(g, warm)
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	last := path[len(path)-1]

	o := NewPatch(g)
	const delta = 123 * time.Microsecond
	o.SetDuration(last, last.Duration+delta)
	got, err := sim.ReSimulate(o)
	if err != nil {
		t.Fatal(err)
	}
	if sim.LastFellBack() {
		t.Fatal("fell back on a single-task duration delta")
	}
	// The critical path ends the iteration, so stretching its last task
	// stretches the makespan by exactly the delta.
	if want := warm.Makespan + delta; got.Makespan != want {
		t.Fatalf("makespan %v, want %v", got.Makespan, want)
	}
	if n, limit := sim.RecomputedTasks(), g.NumTasks()/10; n == 0 || n > limit {
		t.Fatalf("recomputed %d tasks; want O(cone), at most %d of %d", n, limit, g.NumTasks())
	}
	want, err := o.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	assertSameSim(t, o, got, want)

	// A no-op delta (same value re-set) converges instantly.
	o.Reset(g)
	o.SetDuration(last, last.Duration)
	if _, err := sim.ReSimulate(o); err != nil {
		t.Fatal(err)
	}
	if n := sim.RecomputedTasks(); n != 0 {
		t.Fatalf("no-op delta recomputed %d tasks", n)
	}
}

// TestIncrementalBaselineView re-simulates the baseline graph itself:
// the empty delta reproduces the warm schedule without recomputation.
func TestIncrementalBaselineView(t *testing.T) {
	g := modelGraph(t, "gnmt")
	sim, err := NewIncrementalSim(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.ReSimulate(g)
	if err != nil {
		t.Fatal(err)
	}
	if sim.LastFellBack() || sim.RecomputedTasks() != 0 {
		t.Fatalf("baseline view: fellBack=%v recomputed=%d", sim.LastFellBack(), sim.RecomputedTasks())
	}
	want, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	assertSameSim(t, g, got, want)

	other := g.Clone()
	if _, err := sim.ReSimulate(other); err == nil {
		t.Fatal("accepted a foreign graph view")
	}
}

// TestIncrementalFallbacks pins every delta class the incremental
// schedule cannot model onto the cold path — still bit-identical, with
// LastFellBack reporting the tier.
func TestIncrementalFallbacks(t *testing.T) {
	g := modelGraph(t, "resnet50")
	sim, err := NewIncrementalSim(g)
	if err != nil {
		t.Fatal(err)
	}
	tasks := g.Tasks()

	t.Run("priority-edit", func(t *testing.T) {
		o := NewPatch(g)
		o.SetPriority(tasks[3], 99)
		got, err := sim.ReSimulate(o)
		if err != nil {
			t.Fatal(err)
		}
		if !sim.LastFellBack() {
			t.Fatal("priority edit did not fall back")
		}
		want, err := o.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		assertSameSim(t, o, got, want)
	})

	t.Run("structural-patch", func(t *testing.T) {
		p := NewPatch(g)
		nt := p.NewTask("extra", tasks[0].Kind, tasks[0].Thread, 40*time.Microsecond)
		p.AppendTask(nt)
		got, err := sim.ReSimulate(p)
		if err != nil {
			t.Fatal(err)
		}
		if !sim.LastFellBack() {
			t.Fatal("structural patch did not fall back")
		}
		want, err := p.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.Makespan {
			t.Fatalf("makespan: incremental %v, cold %v", got.Makespan, want.Makespan)
		}
	})

	t.Run("timing-only-patch", func(t *testing.T) {
		p := NewPatch(g)
		p.SetDuration(tasks[7], 5*time.Microsecond)
		got, err := sim.ReSimulate(p)
		if err != nil {
			t.Fatal(err)
		}
		if sim.LastFellBack() {
			t.Fatal("timing-only patch fell back")
		}
		want, err := p.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		assertSameSim(t, p, got, want)
	})

	t.Run("custom-scheduler", func(t *testing.T) {
		type wrapped struct{ EarliestStart }
		o := NewPatch(g)
		o.SetDuration(tasks[5], 1*time.Microsecond)
		got, err := sim.ReSimulate(o, WithScheduler(wrapped{}))
		if err != nil {
			t.Fatal(err)
		}
		if !sim.LastFellBack() {
			t.Fatal("custom scheduler did not fall back")
		}
		want, err := o.Simulate(WithScheduler(wrapped{}))
		if err != nil {
			t.Fatal(err)
		}
		assertSameSim(t, o, got, want)
	})

	t.Run("negative-timing", func(t *testing.T) {
		o := NewPatch(g)
		o.SetGap(tasks[2], -tasks[2].Duration-time.Microsecond)
		got, err := sim.ReSimulate(o)
		if err != nil {
			t.Fatal(err)
		}
		if !sim.LastFellBack() {
			t.Fatal("negative effective timing did not fall back")
		}
		want, err := o.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		assertSameSim(t, o, got, want)
	})

	t.Run("foreign-baseline-overlay", func(t *testing.T) {
		o := NewPatch(g.Clone())
		if _, err := sim.ReSimulate(o); err == nil {
			t.Fatal("accepted a patch over a foreign baseline")
		}
	})

	st := sim.Stats()
	if st.Calls == 0 || st.Fallbacks == 0 || st.Fallbacks >= st.Calls {
		t.Fatalf("implausible stats: %+v", st)
	}
}

// TestIncrementalUnforcedThread builds a thread whose warm order is NOT
// forced by dependency edges and checks that any divergence there goes
// cold — including a delta that genuinely flips the thread's execution
// order, where trusting the warm order would be wrong.
func TestIncrementalUnforcedThread(t *testing.T) {
	build := func() (*Graph, *Task, *Task, *Task, *Task) {
		g := NewGraph()
		c1 := g.NewTask("c1", kindFor(CPU(1)), CPU(1), 100*time.Microsecond)
		g.AppendTask(c1)
		c2 := g.NewTask("c2", kindFor(CPU(2)), CPU(2), 200*time.Microsecond)
		g.AppendTask(c2)
		g1 := g.NewTask("g1", kindFor(Stream(7)), Stream(7), 50*time.Microsecond)
		g.AppendTask(g1)
		g2 := g.NewTask("g2", kindFor(Stream(7)), Stream(7), 50*time.Microsecond)
		g.AppendTask(g2)
		// Unforce the stream: drop the sequence edge so g1/g2 order is
		// decided by readiness alone.
		if !g.RemoveDependency(g1, g2) {
			t.Fatal("no sequence edge to remove")
		}
		if err := g.AddDependency(c1, g1, DepCustom); err != nil {
			t.Fatal(err)
		}
		if err := g.AddDependency(c2, g2, DepCustom); err != nil {
			t.Fatal(err)
		}
		return g, c1, c2, g1, g2
	}

	g, c1, _, g1, g2 := build()
	sim, err := NewIncrementalSim(g)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	// Warm order on the stream: g1 (ready 100) before g2 (ready 200).
	if warm.Start[g1.ID] != 100*time.Microsecond || warm.Start[g2.ID] != 200*time.Microsecond {
		t.Fatalf("unexpected warm schedule: g1=%v g2=%v", warm.Start[g1.ID], warm.Start[g2.ID])
	}

	// Delta that flips the order: c1 slows to 300µs, so g2 becomes
	// ready first and the cold scheduler runs it first.
	o := NewPatch(g)
	o.SetDuration(c1, 300*time.Microsecond)
	got, err := sim.ReSimulate(o)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.LastFellBack() {
		t.Fatal("order-flipping delta on an unforced thread did not fall back")
	}
	want, err := o.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	assertSameSim(t, o, got, want)
	if want.Start[g2.ID] != 200*time.Microsecond || want.Start[g1.ID] != 300*time.Microsecond {
		t.Fatalf("cold schedule did not flip: g1=%v g2=%v", want.Start[g1.ID], want.Start[g2.ID])
	}

	// A benign slowdown that keeps the order still goes cold — the
	// engine is conservative on unforced threads — and stays exact.
	o.Reset(g)
	o.SetDuration(c1, 120*time.Microsecond)
	got, err = sim.ReSimulate(o)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.LastFellBack() {
		t.Fatal("divergence on an unforced thread did not fall back")
	}
	want, err = o.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	assertSameSim(t, o, got, want)
}

// TestSimResultResetClone covers the pooling helpers: Clone shares no
// storage, Reset empties in place while keeping capacity.
func TestSimResultResetClone(t *testing.T) {
	g, tasks := chain(4, 10*time.Microsecond)
	o := NewPatch(g)
	o.SetDuration(tasks[1], 99*time.Microsecond)
	res, err := o.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Clone()
	if c.Makespan != res.Makespan || len(c.Start) != len(res.Start) {
		t.Fatalf("clone mismatch: %+v vs %+v", c, res)
	}
	if c.TaskDuration(tasks[1]) != 99*time.Microsecond {
		t.Fatal("clone lost effective timings")
	}
	// Mutating the clone must not touch the original.
	c.Start[0] = 1234
	for tid := range c.ThreadEnd {
		c.ThreadEnd[tid] = 5678
	}
	if res.Start[0] == 1234 {
		t.Fatal("clone shares Start storage")
	}
	for _, end := range res.ThreadEnd {
		if end == 5678 {
			t.Fatal("clone shares ThreadEnd storage")
		}
	}

	res.Reset()
	if res.Makespan != 0 || len(res.Start) != 0 || len(res.ThreadEnd) != 0 {
		t.Fatalf("reset left state behind: %+v", res)
	}
	if res.TaskDuration(tasks[1]) != tasks[1].Duration {
		t.Fatal("reset kept effective timings")
	}
	// A reset buffer is immediately reusable via WithResultBuffer.
	if _, err := g.Simulate(WithResultBuffer(res)); err != nil {
		t.Fatal(err)
	}
	if len(res.Start) != g.IDSpan() {
		t.Fatal("buffer not refilled after Reset")
	}
}
