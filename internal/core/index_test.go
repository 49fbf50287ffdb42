package core

import (
	"sync"
	"testing"

	"daydream/internal/trace"
)

// naiveLastBwdGPU is the pre-index linear scan, kept as the reference
// the index must reproduce exactly (including tie-breaking on equal
// traced starts).
func naiveLastBwdGPU(g *Graph, layerIndex int) *Task {
	var best *Task
	for _, t := range g.Tasks() {
		if !t.OnGPU() || !t.HasLayer || t.Phase != trace.Backward || t.LayerIndex != layerIndex {
			continue
		}
		if best == nil || t.TracedStart > best.TracedStart {
			best = t
		}
	}
	return best
}

func naiveFirstFwdGPU(g *Graph, layerIndex, round int) *Task {
	var best *Task
	for _, t := range g.Tasks() {
		if !t.OnGPU() || !t.HasLayer || t.Phase != trace.Forward ||
			t.LayerIndex != layerIndex || t.Round != round {
			continue
		}
		if best == nil || t.TracedStart < best.TracedStart {
			best = t
		}
	}
	return best
}

func naiveEarliestWU(g *Graph) *Task {
	var best *Task
	for _, t := range g.Tasks() {
		if !t.HasLayer || t.Phase != trace.WeightUpdate {
			continue
		}
		if best == nil || t.TracedStart < best.TracedStart {
			best = t
		}
	}
	return best
}

func TestLayerPhaseIndexMatchesNaiveScans(t *testing.T) {
	g := modelGraph(t, "resnet50")
	ix := g.LayerPhaseIndex()
	if ix.Layers() == 0 {
		t.Fatal("index found no layers on a mapped graph")
	}
	for li := -1; li <= ix.Layers(); li++ {
		if got, want := ix.LastBackwardGPUAnyRound(li), naiveLastBwdGPU(g, li); got != want {
			t.Fatalf("LastBackwardGPUAnyRound(%d) = %v, naive scan = %v", li, got, want)
		}
		for r := 0; r < ix.Rounds(); r++ {
			if got, want := ix.FirstForwardGPU(li, r), naiveFirstFwdGPU(g, li, r); got != want {
				t.Fatalf("FirstForwardGPU(%d,%d) = %v, naive scan = %v", li, r, got, want)
			}
		}
	}
	if got, want := ix.EarliestWeightUpdate(), naiveEarliestWU(g); got != want {
		t.Fatalf("EarliestWeightUpdate = %v, naive scan = %v", got, want)
	}
	// Cached GPU lists and their compute classification agree with
	// Select and the predicate, element by element: the timing-only
	// what-ifs (AMP, device upgrades, kernel profiles, batchnorm
	// restructuring) classify through them.
	gpu := g.Select((*Task).OnGPU)
	got, compute := ix.GPUTasks(), ix.GPUComputeBound()
	if len(got) != len(gpu) || len(compute) != len(gpu) {
		t.Fatalf("GPUTasks: %d entries, GPUComputeBound: %d, Select: %d", len(got), len(compute), len(gpu))
	}
	for i, u := range gpu {
		if got[i] != u {
			t.Fatalf("GPUTasks[%d] = %v, Select[%d] = %v", i, got[i], i, u)
		}
		if compute[i] != ComputeIntensivePred(u) {
			t.Fatalf("GPUComputeBound[%d] = %v, ComputeIntensivePred(%v) = %v", i, compute[i], u, !compute[i])
		}
	}
	wu := g.Select(func(t *Task) bool { return t.OnGPU() && t.HasLayer && t.Phase == trace.WeightUpdate })
	if got := ix.WeightUpdateGPUTasks(); len(got) != len(wu) {
		t.Fatalf("WeightUpdateGPUTasks: %d entries, Select: %d", len(got), len(wu))
	} else {
		for i := range wu {
			if got[i] != wu[i] {
				t.Fatalf("WeightUpdateGPUTasks[%d] = %v, Select = %v", i, got[i], wu[i])
			}
		}
	}
}

func TestLayerPhaseIndexRepeatedGraphRounds(t *testing.T) {
	g := modelGraph(t, "resnet50")
	rep, err := g.Repeat(3)
	if err != nil {
		t.Fatal(err)
	}
	ix := rep.LayerPhaseIndex()
	if ix.Rounds() != 3 {
		t.Fatalf("Rounds = %d, want 3", ix.Rounds())
	}
	for li := 0; li < ix.Layers(); li++ {
		for r := 0; r < 3; r++ {
			if got, want := ix.FirstForwardGPU(li, r), naiveFirstFwdGPU(rep, li, r); got != want {
				t.Fatalf("FirstForwardGPU(%d,%d) = %v, naive = %v", li, r, got, want)
			}
		}
	}
}

func TestLayerPhaseIndexMemoAndInvalidation(t *testing.T) {
	g := modelGraph(t, "resnet50")
	ix1 := g.LayerPhaseIndex()
	if ix2 := g.LayerPhaseIndex(); ix2 != ix1 {
		t.Fatal("second call did not return the memoized index")
	}
	// Structural mutation invalidates.
	nt := g.NewTask("extra", trace.KindKernel, Stream(7), 1)
	g.AppendTask(nt)
	ix3 := g.LayerPhaseIndex()
	if ix3 == ix1 {
		t.Fatal("NewTask did not invalidate the memoized index")
	}
	g.Remove(nt)
	if ix4 := g.LayerPhaseIndex(); ix4 == ix3 {
		t.Fatal("Remove did not invalidate the memoized index")
	}
	// A clone must not inherit the parent's memo (its index would point
	// at the parent's tasks).
	c := g.Clone()
	cix := c.LayerPhaseIndex()
	if cix == g.LayerPhaseIndex() {
		t.Fatal("clone shares the parent's index")
	}
	if got := cix.EarliestWeightUpdate(); got != nil && c.Task(got.ID) != got {
		t.Fatal("clone's index points at tasks outside the clone")
	}
}

func TestLayerPhaseIndexConcurrentBuild(t *testing.T) {
	g := modelGraph(t, "resnet50")
	var wg sync.WaitGroup
	indexes := make([]*LayerPhaseIndex, 8)
	for i := range indexes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			indexes[i] = g.LayerPhaseIndex()
		}(i)
	}
	wg.Wait()
	want := naiveEarliestWU(g)
	for i, ix := range indexes {
		if ix == nil {
			t.Fatalf("goroutine %d got nil index", i)
		}
		if ix.EarliestWeightUpdate() != want {
			t.Fatalf("goroutine %d: EarliestWeightUpdate mismatch", i)
		}
	}
}

// TestGPUTasksMatching checks the memoized substring match against the
// naive predicate scan, the shared-slice identity of a memo hit, and
// concurrent lookups under varied substrings.
func TestGPUTasksMatching(t *testing.T) {
	g := modelGraph(t, "resnet50")
	ix := g.LayerPhaseIndex()

	subs := []string{"conv", "sgemm", "", "no-such-kernel-name"}
	for _, sub := range subs {
		got := ix.GPUTasksMatching(sub)
		match := NameContains(sub)
		var want []*Task
		for _, u := range ix.GPUTasks() {
			if match(u) {
				want = append(want, u)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("GPUTasksMatching(%q): %d tasks, naive scan found %d", sub, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("GPUTasksMatching(%q): task %d differs from naive scan", sub, i)
			}
		}
		// A repeat lookup must serve the memoized slice, not rescan.
		again := ix.GPUTasksMatching(sub)
		if len(again) > 0 && &again[0] != &got[0] {
			t.Fatalf("GPUTasksMatching(%q): repeat lookup rebuilt the slice", sub)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub := subs[(w+i)%len(subs)]
				if got := ix.GPUTasksMatching(sub); len(got) != len(ix.GPUTasksMatching(sub)) {
					t.Errorf("concurrent GPUTasksMatching(%q) disagreed with itself", sub)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
