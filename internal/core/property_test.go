package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"daydream/internal/trace"
)

// randomDAG builds a random multi-thread dependency graph. Forward-only
// cross edges (lower ID → higher ID) guarantee acyclicity.
func randomDAG(rng *rand.Rand) *Graph {
	g := NewGraph()
	threads := []ThreadID{CPU(1), CPU(2), Stream(7), Channel("c")}
	n := rng.Intn(60) + 2
	tasks := make([]*Task, n)
	for i := 0; i < n; i++ {
		tid := threads[rng.Intn(len(threads))]
		task := g.NewTask("t", kindFor(tid), tid, time.Duration(rng.Intn(5000))*time.Microsecond)
		if tid.Kind == CPUThread {
			task.Gap = time.Duration(rng.Intn(500)) * time.Microsecond
		}
		task.Priority = rng.Intn(10) - 5
		g.AppendTask(task)
		tasks[i] = task
	}
	for e := 0; e < n/2; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		_ = g.AddDependency(tasks[i], tasks[j], DepCustom)
	}
	return g
}

// TestRandomDAGSimulationInvariants checks, over many random graphs, that
// Algorithm 1 (a) executes every task, (b) never violates a dependency,
// (c) never overlaps tasks on one thread, and (d) is deterministic.
func TestRandomDAGSimulationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng)
		if err := g.Validate(); err != nil {
			return false
		}
		res, err := g.Simulate()
		if err != nil {
			return false
		}
		if len(res.Start) != g.NumTasks() {
			return false
		}
		for _, u := range g.Tasks() {
			uEnd := res.Start[u.ID] + u.Duration + u.Gap
			for _, c := range u.Children() {
				if res.Start[c.ID] < uEnd {
					return false
				}
			}
		}
		for _, tid := range g.Threads() {
			var prevEnd time.Duration
			for _, u := range g.ThreadTasks(tid) {
				if res.Start[u.ID] < prevEnd {
					return false
				}
				prevEnd = res.Start[u.ID] + u.Duration + u.Gap
			}
		}
		res2, err := g.Simulate()
		if err != nil || res2.Makespan != res.Makespan {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomRemovalsKeepGraphSound removes random tasks from random graphs
// and checks the graph stays valid, acyclic and simulatable, and that the
// makespan never grows (removal only deletes work).
func TestRandomRemovalsKeepGraphSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng)
		before, err := g.Clone().PredictIteration()
		if err != nil {
			return false
		}
		victims := g.Tasks()
		rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
		k := rng.Intn(len(victims)/2 + 1)
		for _, v := range victims[:k] {
			g.Remove(v)
		}
		if err := g.Validate(); err != nil {
			return false
		}
		after, err := g.PredictIteration()
		if err != nil {
			return false
		}
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomScalingMonotonic checks that uniformly shrinking every task
// never increases the makespan, and uniformly growing never decreases it.
func TestRandomScalingMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng)
		base, err := g.Clone().PredictIteration()
		if err != nil {
			return false
		}
		shrunk := g.Clone()
		scaleTasks(shrunk.Tasks(), 0.5)
		s, err := shrunk.PredictIteration()
		if err != nil {
			return false
		}
		grown := g.Clone()
		scaleTasks(grown.Tasks(), 2.0)
		l, err := grown.PredictIteration()
		if err != nil {
			return false
		}
		return s <= base && l >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomCloneEquivalence checks that a clone of a random graph
// simulates to the identical schedule.
func TestRandomCloneEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng)
		a, err := g.Simulate()
		if err != nil {
			return false
		}
		b, err := g.Clone().Simulate()
		if err != nil {
			return false
		}
		if a.Makespan != b.Makespan {
			return false
		}
		for id, s := range a.Start {
			if b.Start[id] != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomRepeatPeriod checks on random graphs that an n-fold repeat is
// valid and its rounds complete in order.
func TestRandomRepeatPeriod(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng)
		rep, err := g.Repeat(3)
		if err != nil {
			return false
		}
		res, err := rep.Simulate()
		if err != nil {
			return false
		}
		r0 := RoundSpan(rep, res, 0)
		r1 := RoundSpan(rep, res, 1)
		r2 := RoundSpan(rep, res, 2)
		// Rounds complete in order; the makespan may exceed the last
		// finish by at most the final task's trailing gap.
		return r0 <= r1 && r1 <= r2 && r2 <= res.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildIsDeterministicAcrossSortOrder shuffles a trace's activity
// order and checks Build produces an equivalent graph (same makespan).
func TestBuildIsDeterministicAcrossSortOrder(t *testing.T) {
	g := modelGraph(t, "gnmt")
	want, err := g.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild from a shuffled copy of the same trace.
	tr := rebuildTrace(t)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(tr.Activities), func(i, j int) {
		tr.Activities[i], tr.Activities[j] = tr.Activities[j], tr.Activities[i]
	})
	g2, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	MapLayers(g2, tr.LayerSpans)
	got, err := g2.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("shuffled build simulates differently: %v vs %v", got, want)
	}
}

func rebuildTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr := collectTrace(t, "gnmt")
	return tr
}
