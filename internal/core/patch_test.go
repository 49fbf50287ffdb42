package core

import (
	"fmt"
	"testing"
	"time"

	"daydream/internal/trace"
)

// patchTestGraph builds a CPU chain launching a GPU chain with a couple
// of cross edges, enough structure for structural deltas to bite.
func patchTestGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := NewGraph()
	var kernels []*Task
	for i := 0; i < n; i++ {
		launch := g.NewTask("cudaLaunchKernel", trace.KindLaunch, CPU(1), 2*time.Microsecond)
		g.AppendTask(launch)
		kern := g.NewTask(fmt.Sprintf("k%d", i), trace.KindKernel, Stream(7), time.Duration(10+i)*time.Microsecond)
		g.AppendTask(kern)
		if err := g.Correlate(launch, kern); err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, kern)
	}
	// A sync edge back to the CPU from the middle kernel.
	if n >= 3 {
		sync := g.NewTask("cudaStreamSynchronize", trace.KindSync, CPU(1), time.Microsecond)
		g.AppendTask(sync)
		if err := g.AddDependency(kernels[n/2], sync, DepSync); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// applyBoth runs the same structural edit script against a private
// clone (through the Graph primitives) and against a patch (through the
// Patch primitives), then asserts bit-identical simulations and a
// bit-identical materialization.
func applyBoth(t *testing.T, g *Graph, edit func(t *testing.T, ed interface {
	NewTask(name string, kind trace.Kind, thread ThreadID, dur time.Duration) *Task
	AppendTask(*Task)
	AddDependency(from, to *Task, kind DepKind) error
}, tasks func(int) *Task)) {
	t.Helper()
	c := g.Clone()
	edit(t, c, func(id int) *Task { return c.Task(id) })
	p := NewPatch(g)
	edit(t, p, func(id int) *Task { return g.Task(id) })
	assertPatchMatchesGraph(t, p, c)
}

// assertPatchMatchesGraph checks the patch's simulation and
// materialization against an explicitly mutated reference graph.
func assertPatchMatchesGraph(t *testing.T, p *Patch, want *Graph) {
	t.Helper()
	wres, err := want.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	gres, err := p.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if gres.Makespan != wres.Makespan {
		t.Fatalf("makespan: patch %v, graph %v", gres.Makespan, wres.Makespan)
	}
	if p.IDSpan() != want.IDSpan() {
		t.Fatalf("ID span: patch %d, graph %d", p.IDSpan(), want.IDSpan())
	}
	if p.NumTasks() != want.NumTasks() {
		t.Fatalf("task count: patch %d, graph %d", p.NumTasks(), want.NumTasks())
	}
	for id := 0; id < want.IDSpan(); id++ {
		if (want.Task(id) == nil) != (p.Task(id) == nil) {
			t.Fatalf("task %d liveness: patch %v, graph %v", id, p.Task(id), want.Task(id))
		}
		if want.Task(id) == nil {
			continue
		}
		if gres.Start[id] != wres.Start[id] {
			t.Fatalf("task %d start: patch %v, graph %v", id, gres.Start[id], wres.Start[id])
		}
	}
	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	mres, err := m.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if mres.Makespan != wres.Makespan {
		t.Fatalf("materialized makespan: %v, graph %v", mres.Makespan, wres.Makespan)
	}
	if m.NumEdges() != want.NumEdges() {
		t.Fatalf("materialized edges: %d, graph %d", m.NumEdges(), want.NumEdges())
	}
}

func TestPatchAppendAndDependencies(t *testing.T) {
	g := patchTestGraph(t, 5)
	applyBoth(t, g, func(t *testing.T, ed interface {
		NewTask(name string, kind trace.Kind, thread ThreadID, dur time.Duration) *Task
		AppendTask(*Task)
		AddDependency(from, to *Task, kind DepKind) error
	}, task func(int) *Task) {
		// Two comm tasks on a fresh channel, serialized, gated by
		// kernels, feeding the sync task.
		a := ed.NewTask("allreduce-a", trace.KindComm, Channel("nccl"), 50*time.Microsecond)
		ed.AppendTask(a)
		b := ed.NewTask("allreduce-b", trace.KindComm, Channel("nccl"), 30*time.Microsecond)
		ed.AppendTask(b)
		if err := ed.AddDependency(task(1), a, DepComm); err != nil {
			t.Fatal(err)
		}
		if err := ed.AddDependency(task(3), b, DepComm); err != nil {
			t.Fatal(err)
		}
		if err := ed.AddDependency(a, task(10), DepComm); err != nil {
			t.Fatal(err)
		}
		// Duplicate edges are silently ignored on both surfaces.
		if err := ed.AddDependency(task(1), a, DepCustom); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPatchRemoveTaskMatchesGraphRemove(t *testing.T) {
	for _, ids := range [][]int{
		{3},          // middle kernel (has sync child)
		{1, 3, 5},    // several kernels, front to back
		{5, 3, 1},    // same, back to front
		{0, 2, 4, 6}, // every launch: exercises peer-less removal chains
	} {
		ids := ids
		t.Run(fmt.Sprintf("%v", ids), func(t *testing.T) {
			g := patchTestGraph(t, 5)
			c := g.Clone()
			for _, id := range ids {
				c.Remove(c.Task(id))
			}
			p := NewPatch(g)
			for _, id := range ids {
				p.RemoveTask(g.Task(id))
			}
			assertPatchMatchesGraph(t, p, c)
			// Double removal is a no-op, as on the graph.
			p.RemoveTask(g.Task(ids[0]))
			assertPatchMatchesGraph(t, p, c)
		})
	}
}

func TestPatchInsertPrimitives(t *testing.T) {
	g := patchTestGraph(t, 4)
	c := g.Clone()
	ck := c.NewTask("mid", trace.KindKernel, Stream(7), 7*time.Microsecond)
	if err := c.InsertAfter(c.Task(3), ck); err != nil {
		t.Fatal(err)
	}
	ch := c.NewTask("head", trace.KindLaunch, CPU(1), time.Microsecond)
	if err := c.InsertBefore(c.Task(0), ch); err != nil {
		t.Fatal(err)
	}

	p := NewPatch(g)
	pk := p.NewTask("mid", trace.KindKernel, Stream(7), 7*time.Microsecond)
	if err := p.InsertAfter(g.Task(3), pk); err != nil {
		t.Fatal(err)
	}
	ph := p.NewTask("head", trace.KindLaunch, CPU(1), time.Microsecond)
	if err := p.InsertBefore(g.Task(0), ph); err != nil {
		t.Fatal(err)
	}
	assertPatchMatchesGraph(t, p, c)

	if err := p.InsertAfter(nil, pk); err == nil {
		t.Fatal("nil anchor accepted")
	}
	if err := p.InsertAfter(c.Task(3), pk); err == nil {
		t.Fatal("foreign-graph anchor accepted")
	}
}

func TestPatchRemoveDependency(t *testing.T) {
	g := patchTestGraph(t, 5)
	sync := g.Task(g.IDSpan() - 1)
	kern := g.Task(5) // the kernel feeding the sync task (n/2 = 2 → ID 5)
	c := g.Clone()
	if !c.RemoveDependency(c.Task(kern.ID), c.Task(sync.ID)) {
		t.Fatal("graph edge not found")
	}
	p := NewPatch(g)
	if !p.RemoveDependency(kern, sync) {
		t.Fatal("patch edge not found")
	}
	if p.RemoveDependency(kern, sync) {
		t.Fatal("patch removed a masked edge twice")
	}
	assertPatchMatchesGraph(t, p, c)

	// Re-adding after removal works, with a (possibly different) kind.
	if err := c.AddDependency(c.Task(kern.ID), c.Task(sync.ID), DepCustom); err != nil {
		t.Fatal(err)
	}
	if err := p.AddDependency(kern, sync, DepCustom); err != nil {
		t.Fatal(err)
	}
	assertPatchMatchesGraph(t, p, c)
}

func TestPatchTimingTierAndAppendixTiming(t *testing.T) {
	g := patchTestGraph(t, 4)
	p := NewPatch(g)
	// Baseline edits go through the timing tier; appendix edits write
	// the private fields.
	k := g.Task(1)
	p.SetDuration(k, time.Millisecond)
	p.SetGap(k, time.Microsecond)
	p.SetPriority(k, 9)
	a := p.NewTask("x", trace.KindComm, Channel("c"), 4*time.Microsecond)
	p.AppendTask(a)
	if err := p.AddDependency(k, a, DepComm); err != nil {
		t.Fatal(err)
	}
	p.SetDuration(a, 2*time.Millisecond)
	p.ScaleDuration(a, 0.5)
	p.SetPriority(a, 3)
	if p.Duration(k) != time.Millisecond || p.Gap(k) != time.Microsecond || p.Priority(k) != 9 {
		t.Fatalf("baseline timing reads: %v %v %d", p.Duration(k), p.Gap(k), p.Priority(k))
	}
	if p.Duration(a) != time.Millisecond || a.Priority != 3 {
		t.Fatalf("appendix timing reads: %v %d", p.Duration(a), a.Priority)
	}
	if k.Duration == time.Millisecond {
		t.Fatal("baseline task mutated")
	}
	// The reference graph with the same edits.
	c := g.Clone()
	ck := c.Task(1)
	ck.Duration, ck.Gap, ck.Priority = time.Millisecond, time.Microsecond, 9
	ca := c.NewTask("x", trace.KindComm, Channel("c"), 4*time.Microsecond)
	c.AppendTask(ca)
	if err := c.AddDependency(ck, ca, DepComm); err != nil {
		t.Fatal(err)
	}
	ca.Duration, ca.Priority = time.Millisecond, 3
	assertPatchMatchesGraph(t, p, c)

	// The simulation result reads effective timings for both tiers.
	res, err := p.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskDuration(k) != time.Millisecond || res.TaskDuration(a) != time.Millisecond {
		t.Fatalf("result durations: %v %v", res.TaskDuration(k), res.TaskDuration(a))
	}
}

func TestPatchResetReuse(t *testing.T) {
	g := patchTestGraph(t, 6)
	base, err := g.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPatch(g)
	scratch := NewSimScratch()
	buf := &SimResult{}
	for i := 0; i < 4; i++ {
		p.Reset(g)
		if p.Structural() {
			t.Fatal("Reset left structural deltas")
		}
		// Pure replay after reset matches the baseline.
		if got, err := p.PredictIteration(WithScratch(scratch), WithResultBuffer(buf)); err != nil || got != base {
			t.Fatalf("iteration %d: replay %v (%v), want %v", i, got, err, base)
		}
		// Then a structural edit, different each round.
		c := p.NewTask(fmt.Sprintf("comm%d", i), trace.KindComm, Channel("x"), time.Duration(i+1)*time.Millisecond)
		p.AppendTask(c)
		if err := p.AddDependency(g.Task(1), c, DepComm); err != nil {
			t.Fatal(err)
		}
		got, err := p.PredictIteration(WithScratch(scratch), WithResultBuffer(buf))
		if err != nil {
			t.Fatal(err)
		}
		// The comm task extends the makespan by at least its duration
		// beyond the gating kernel's finish, and each round's edit is
		// strictly longer than the last.
		if got <= base || got < time.Duration(i+1)*time.Millisecond {
			t.Fatalf("iteration %d: patched %v (baseline %v)", i, got, base)
		}
	}
	// The baseline is untouched throughout.
	if got, _ := g.PredictIteration(); got != base {
		t.Fatalf("baseline drifted: %v vs %v", got, base)
	}
}

// lifoPatchScheduler is a trivial non-default scheduler.
type lifoPatchScheduler struct{}

func (lifoPatchScheduler) Pick(frontier []*Task, _ *SchedContext) int {
	return len(frontier) - 1
}

func TestPatchCustomSchedulerRunsOnCompositeView(t *testing.T) {
	g := patchTestGraph(t, 3)
	p := NewPatch(g)
	c := p.NewTask("c", trace.KindComm, Channel("x"), time.Microsecond)
	p.AppendTask(c)
	if err := p.AddDependency(g.Task(1), c, DepComm); err != nil {
		t.Fatal(err)
	}
	p.SetDuration(g.Task(1), 40*time.Microsecond)
	// A structural patch with a custom scheduler simulates directly over
	// the composite view — zero clones — and must be bit-identical to
	// materializing the patch and scheduling the real graph.
	got, err := p.Simulate(WithScheduler(lifoPatchScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	if p.Materializations() != 0 {
		t.Fatalf("scheduled patch simulation materialized %d times, want 0", p.Materializations())
	}
	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Simulate(WithScheduler(lifoPatchScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("view path makespan %v, clone path %v", got.Makespan, want.Makespan)
	}
	for id := range want.Start {
		if got.Start[id] != want.Start[id] {
			t.Fatalf("task %d start: view %v, clone %v", id, got.Start[id], want.Start[id])
		}
	}
	// The result carries effective timings for baseline and appendix
	// task pointers.
	if got.TaskDuration(g.Task(1)) != 40*time.Microsecond || got.TaskDuration(c) != time.Microsecond {
		t.Fatalf("scheduled result durations: %v, %v", got.TaskDuration(g.Task(1)), got.TaskDuration(c))
	}
	// The default scheduler stays on the composite-view heap path.
	if _, err := p.Simulate(WithScheduler(EarliestStart{})); err != nil {
		t.Fatal(err)
	}
	// A non-structural patch takes the timing fast path, which runs
	// custom schedulers view-generically too.
	p.Reset(g)
	if _, err := p.Simulate(WithScheduler(lifoPatchScheduler{})); err != nil {
		t.Fatal(err)
	}
}

// TestPatchAddDependencyRequiresLiveTasks pins the liveness guard: an
// edge touching a removed task is rejected (the materialized replay
// would fail it too), so the heap and scheduled simulation paths can
// never disagree about a dangling edge.
func TestPatchAddDependencyRequiresLiveTasks(t *testing.T) {
	g := patchTestGraph(t, 3)
	p := NewPatch(g)
	victim := g.Task(0)
	p.RemoveTask(victim)
	if err := p.AddDependency(victim, g.Task(1), DepCustom); err == nil {
		t.Fatal("AddDependency accepted a removed source")
	}
	if err := p.AddDependency(g.Task(1), victim, DepCustom); err == nil {
		t.Fatal("AddDependency accepted a removed target")
	}
	// Both paths still simulate the same live view.
	want, err := p.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Simulate(WithScheduler(wrappedEarliest{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("scheduled %v, heap %v", got.Makespan, want.Makespan)
	}
}

// TestPatchMaterializeMemo pins the materialization cache: repeated
// Materialize calls without intervening edits return the same graph and
// pay the clone+replay exactly once (the KeepGraphs +
// custom-Scheduler sweep path used to materialize twice), and any edit
// — structural, patch timing, timing-tier, or Reset — invalidates.
func TestPatchMaterializeMemo(t *testing.T) {
	g := patchTestGraph(t, 3)
	p := NewPatch(g)
	c := p.NewTask("c", trace.KindComm, Channel("x"), time.Microsecond)
	p.AppendTask(c)

	m1, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 || p.Materializations() != 1 {
		t.Fatalf("repeated Materialize: %d materializations (same graph: %v), want 1 memoized", p.Materializations(), m1 == m2)
	}

	// A structural edit invalidates.
	if err := p.AddDependency(g.Task(0), c, DepCustom); err != nil {
		t.Fatal(err)
	}
	m3, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m2 || p.Materializations() != 2 {
		t.Fatalf("structural edit did not invalidate the memo (%d materializations)", p.Materializations())
	}

	// A timing edit through the patch invalidates.
	p.SetDuration(g.Task(1), 5*time.Microsecond)
	if _, err := p.Materialize(); err != nil {
		t.Fatal(err)
	}
	// …and so does a gap edit (the shape of a timing-only
	// optimization).
	p.SetGap(g.Task(1), time.Microsecond)
	if _, err := p.Materialize(); err != nil {
		t.Fatal(err)
	}
	if p.Materializations() != 4 {
		t.Fatalf("timing edits: %d materializations, want 4", p.Materializations())
	}

	// An edit to an appendix task through the patch invalidates too.
	p.SetDuration(c, 9*time.Microsecond)
	m5, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if p.Materializations() != 5 {
		t.Fatalf("appendix timing edit did not invalidate (%d materializations)", p.Materializations())
	}
	if d := m5.Task(c.ID).Duration; d != 9*time.Microsecond {
		t.Fatalf("materialized appendix duration %v", d)
	}

	// Reset drops the memo.
	p.Reset(g)
	if _, err := p.Materialize(); err != nil {
		t.Fatal(err)
	}
	if p.Materializations() != 6 {
		t.Fatalf("Reset did not invalidate (%d materializations)", p.Materializations())
	}
}

func TestPatchPlacementRequiresAppendixTask(t *testing.T) {
	g := patchTestGraph(t, 3)
	p := NewPatch(g)
	base := g.Task(3) // a kernel on Stream(7)
	if err := p.InsertAfter(g.Task(0), base); err == nil {
		t.Fatal("InsertAfter accepted a baseline task")
	}
	if err := p.InsertBefore(g.Task(0), base); err == nil {
		t.Fatal("InsertBefore accepted a baseline task")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AppendTask accepted a baseline task")
			}
		}()
		p.AppendTask(base)
	}()
	// The misuse attempts left no deltas and no baseline mutation.
	if p.Structural() {
		t.Fatal("rejected placements recorded structural deltas")
	}
	if base.Thread != Stream(7) {
		t.Fatalf("baseline task thread mutated: %v", base.Thread)
	}
}

func TestPatchTaskViewAndCycleDetection(t *testing.T) {
	g := patchTestGraph(t, 3)
	p := NewPatch(g)
	a := p.NewTask("a", trace.KindComm, Channel("x"), time.Microsecond)
	p.RemoveTask(g.Task(0))
	tasks := p.Tasks()
	if len(tasks) != g.NumTasks() {
		t.Fatalf("view has %d tasks, want %d (one removed, one added)", len(tasks), g.NumTasks())
	}
	if tasks[len(tasks)-1] != a {
		t.Fatal("appendix task not last in creation order")
	}
	for _, u := range tasks {
		if u.ID == 0 {
			t.Fatal("removed task still in view")
		}
	}
	// An appendix cycle is caught like a graph cycle.
	b := p.NewTask("b", trace.KindComm, Channel("y"), time.Microsecond)
	if err := p.AddDependency(a, b, DepCustom); err != nil {
		t.Fatal(err)
	}
	if err := p.AddDependency(b, a, DepCustom); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Simulate(); err == nil {
		t.Fatal("cyclic patch simulated")
	}
}
