package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"daydream/internal/dnn"
)

// referenceSimulate is a line-for-line replica of the seed engine's
// Simulate: map-backed bookkeeping and an O(n²) linear-scan frontier
// picked by EarliestStart. It is the executable specification the dense
// heap-frontier engine must match exactly — same makespan, same start
// time for every task.
func referenceSimulate(g *Graph) (*SimResult, error) {
	res := &SimResult{
		Start:     make([]time.Duration, g.IDSpan()),
		ThreadEnd: make(map[ThreadID]time.Duration),
	}
	ref := make(map[int]int)
	earliest := make(map[int]time.Duration)
	var frontier []*Task
	for _, t := range g.Tasks() {
		ref[t.ID] = len(t.Parents())
		if ref[t.ID] == 0 {
			frontier = append(frontier, t)
		}
	}
	effStart := func(t *Task) time.Duration {
		es := earliest[t.ID]
		if p := res.ThreadEnd[t.Thread]; p > es {
			es = p
		}
		return es
	}
	// The seed's schedule(): EarliestStart as an inline linear scan —
	// earliest effective start, then higher priority, then lower ID.
	pick := func() int {
		best := -1
		var bestT time.Duration
		for i, t := range frontier {
			et := effStart(t)
			switch {
			case best < 0, et < bestT:
				best, bestT = i, et
			case et == bestT:
				b := frontier[best]
				if t.Priority > b.Priority || (t.Priority == b.Priority && t.ID < b.ID) {
					best = i
				}
			}
		}
		return best
	}
	executed := 0
	for len(frontier) > 0 {
		i := pick()
		u := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		start := effStart(u)
		res.Start[u.ID] = start
		end := start + u.Duration + u.Gap
		res.ThreadEnd[u.Thread] = end
		if end > res.Makespan {
			res.Makespan = end
		}
		executed++
		for _, c := range u.Children() {
			if end > earliest[c.ID] {
				earliest[c.ID] = end
			}
			ref[c.ID]--
			if ref[c.ID] == 0 {
				frontier = append(frontier, c)
			}
		}
	}
	if executed != g.NumTasks() {
		return nil, errCycle
	}
	return res, nil
}

var errCycle = &cycleError{}

type cycleError struct{}

func (*cycleError) Error() string { return "reference: cycle" }

// assertSameSchedule fails unless the two results agree on makespan and
// on the start time of every task.
func assertSameSchedule(t *testing.T, g *Graph, got, want *SimResult) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Fatalf("makespan: dense %v, reference %v", got.Makespan, want.Makespan)
	}
	for _, task := range g.Tasks() {
		if got.Start[task.ID] != want.Start[task.ID] {
			t.Fatalf("task %v starts at %v, reference %v",
				task, got.Start[task.ID], want.Start[task.ID])
		}
	}
	for tid, end := range want.ThreadEnd {
		if got.ThreadEnd[tid] != end {
			t.Fatalf("thread %v ends at %v, reference %v", tid, got.ThreadEnd[tid], end)
		}
	}
}

// TestDenseEngineMatchesReferenceOnZoo is the golden equivalence test:
// for every zoo model, the dense engine must produce the identical
// schedule (makespan + per-task starts) and the identical critical path
// as the seed-semantics reference simulator.
func TestDenseEngineMatchesReferenceOnZoo(t *testing.T) {
	for _, name := range dnn.Names() {
		t.Run(name, func(t *testing.T) {
			g := modelGraph(t, name)
			want, err := referenceSimulate(g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.Simulate()
			if err != nil {
				t.Fatal(err)
			}
			assertSameSchedule(t, g, got, want)
			// The critical path is a pure function of the schedule, so
			// path identity follows task by task.
			gotPath := CriticalPath(g, got)
			wantPath := CriticalPath(g, want)
			if len(gotPath) != len(wantPath) {
				t.Fatalf("critical path length %d, reference %d", len(gotPath), len(wantPath))
			}
			for i := range gotPath {
				if gotPath[i] != wantPath[i] {
					t.Fatalf("critical path diverges at %d: %v vs %v", i, gotPath[i], wantPath[i])
				}
			}
		})
	}
}

// TestDenseEngineMatchesReferenceAfterTransforms checks equivalence on
// graphs that exercise the mutation paths: clone, scaling, insertion and
// removal (which triggers the pruned transitive reconnection).
func TestDenseEngineMatchesReferenceAfterTransforms(t *testing.T) {
	g := modelGraph(t, "resnet50")

	c := g.Clone()
	scaleTasks(c.Select(OnGPUPred), 0.5)
	for _, u := range c.Select(func(t *Task) bool { return t.Kind.String() == "sync" }) {
		c.Remove(u)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	want, err := referenceSimulate(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	assertSameSchedule(t, c, got, want)
}

// TestDenseEngineMatchesReferenceOnRandomDAGs is the property-test
// variant over random multi-thread graphs with priorities, random
// removals included.
func TestDenseEngineMatchesReferenceOnRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng)
		// Random removals exercise the pruned reconnection too.
		victims := g.Tasks()
		rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
		for _, v := range victims[:rng.Intn(len(victims)/3+1)] {
			g.Remove(v)
		}
		want, err := referenceSimulate(g)
		if err != nil {
			return false
		}
		got, err := g.Simulate()
		if err != nil {
			return false
		}
		if got.Makespan != want.Makespan {
			return false
		}
		for _, task := range g.Tasks() {
			if got.Start[task.ID] != want.Start[task.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestScratchReuseIsPure re-simulates with one scratch across differing
// graphs and checks results are independent of scratch history.
func TestScratchReuseIsPure(t *testing.T) {
	scratch := NewSimScratch()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		g := randomDAG(rng)
		fresh, err := g.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		reused, err := g.Simulate(WithScratch(scratch))
		if err != nil {
			t.Fatal(err)
		}
		assertSameSchedule(t, g, reused, fresh)
	}
}

// TestCustomSchedulerPathMatchesDefault checks the slice-frontier path
// (custom schedulers) agrees with the heap path when the custom policy is
// EarliestStart itself, wrapped so it does not type-assert as default.
type wrappedEarliest struct{ EarliestStart }

func TestCustomSchedulerPathMatchesDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		g := randomDAG(rng)
		def, err := g.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		custom, err := g.Simulate(WithScheduler(wrappedEarliest{}))
		if err != nil {
			t.Fatal(err)
		}
		assertSameSchedule(t, g, custom, def)
	}
}
