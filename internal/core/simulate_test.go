package core

import (
	"fmt"
	"testing"
	"time"

	"daydream/internal/trace"
)

func TestSimulateSerialChain(t *testing.T) {
	g, _ := chain(4, 10*time.Microsecond)
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 40*time.Microsecond {
		t.Fatalf("makespan = %v, want 40µs", res.Makespan)
	}
}

func TestSimulateGapSemantics(t *testing.T) {
	// Per Algorithm 1, a task's gap advances its thread's progress and
	// its children's earliest start.
	g, tasks := chain(2, 10*time.Microsecond)
	tasks[0].Gap = 5 * time.Microsecond
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Start[tasks[1].ID]; got != 15*time.Microsecond {
		t.Fatalf("second task starts at %v, want 15µs", got)
	}
	if res.Makespan != 25*time.Microsecond {
		t.Fatalf("makespan = %v, want 25µs", res.Makespan)
	}
}

func TestSimulateParallelThreads(t *testing.T) {
	// Two independent threads run concurrently: makespan = max, not sum.
	g := NewGraph()
	a := g.newTask("a", trace.KindCPUOp, CPU(1), 30*time.Microsecond)
	g.appendTask(a)
	b := g.newTask("b", trace.KindKernel, Stream(7), 50*time.Microsecond)
	g.appendTask(b)
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 50*time.Microsecond {
		t.Fatalf("makespan = %v, want 50µs", res.Makespan)
	}
	if res.Start[a.ID] != 0 || res.Start[b.ID] != 0 {
		t.Fatal("independent tasks should both start at 0")
	}
}

func TestSimulateCrossThreadDependency(t *testing.T) {
	// launch (10µs, CPU) → kernel (20µs, GPU); then a sync on the CPU
	// waits for the kernel. Classic launch/sync diamond.
	g := NewGraph()
	launch := g.newTask("launch", trace.KindLaunch, CPU(1), 10*time.Microsecond)
	g.appendTask(launch)
	kernel := g.newTask("k", trace.KindKernel, Stream(7), 20*time.Microsecond)
	g.appendTask(kernel)
	if err := g.Correlate(launch, kernel); err != nil {
		t.Fatal(err)
	}
	sync := g.newTask("sync", trace.KindSync, CPU(1), 2*time.Microsecond)
	g.appendTask(sync)
	if err := g.addDependency(kernel, sync, DepSync); err != nil {
		t.Fatal(err)
	}
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Start[kernel.ID] != 10*time.Microsecond {
		t.Fatalf("kernel starts at %v, want 10µs", res.Start[kernel.ID])
	}
	if res.Start[sync.ID] != 30*time.Microsecond {
		t.Fatalf("sync starts at %v, want 30µs (after kernel)", res.Start[sync.ID])
	}
	if res.Makespan != 32*time.Microsecond {
		t.Fatalf("makespan = %v, want 32µs", res.Makespan)
	}
}

func TestSimulateDetectsCycle(t *testing.T) {
	g, tasks := chain(2, time.Microsecond)
	if err := g.addDependency(tasks[1], tasks[0], DepCustom); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Simulate(); err == nil {
		t.Fatal("cycle simulated successfully")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	g, _ := chain(50, time.Microsecond)
	// Cross edges to create scheduling choice.
	tasks := g.Tasks()
	for i := 0; i+7 < len(tasks); i += 7 {
		k := g.newTask("k", trace.KindKernel, Stream(7), 3*time.Microsecond)
		g.appendTask(k)
		if err := g.addDependency(tasks[i], k, DepCustom); err != nil {
			t.Fatal(err)
		}
	}
	r1, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan {
		t.Fatal("simulation not deterministic")
	}
	for id, s := range r1.Start {
		if r2.Start[id] != s {
			t.Fatalf("task %d start differs across runs", id)
		}
	}
}

// prioritySched prefers higher-priority tasks among those ready at the
// same effective time — the shape of the P3 scheduler.
func TestSchedulerPriorityTieBreak(t *testing.T) {
	// Two channel tasks become ready at the same instant; the default
	// scheduler must favor the higher Priority.
	g := NewGraph()
	gate := g.newTask("gate", trace.KindCPUOp, CPU(1), 10*time.Microsecond)
	g.appendTask(gate)
	low := g.newTask("low", trace.KindComm, Channel("ps.send"), 10*time.Microsecond)
	low.Priority = -5
	high := g.newTask("high", trace.KindComm, Channel("ps.send"), 10*time.Microsecond)
	high.Priority = 5
	for _, task := range []*Task{low, high} {
		if err := g.addDependency(gate, task, DepComm); err != nil {
			t.Fatal(err)
		}
	}
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Start[high.ID] != 10*time.Microsecond {
		t.Fatalf("high-priority task starts at %v, want first slot", res.Start[high.ID])
	}
	if res.Start[low.ID] != 20*time.Microsecond {
		t.Fatalf("low-priority task starts at %v, want second slot", res.Start[low.ID])
	}
}

// reversePriority inverts the default preference, to prove the override
// hook actually controls scheduling.
type reversePriority struct{}

func (reversePriority) Pick(frontier []*Task, ctx *SchedContext) int {
	best := -1
	var bestT time.Duration
	for i, task := range frontier {
		et := ctx.EffStart(task)
		switch {
		case best < 0, et < bestT:
			best, bestT = i, et
		case et == bestT && ctx.Priority(task) < ctx.Priority(frontier[best]):
			best = i
		}
	}
	return best
}

func TestSchedulerOverride(t *testing.T) {
	g := NewGraph()
	gate := g.newTask("gate", trace.KindCPUOp, CPU(1), 10*time.Microsecond)
	g.appendTask(gate)
	low := g.newTask("low", trace.KindComm, Channel("c"), 10*time.Microsecond)
	low.Priority = -5
	high := g.newTask("high", trace.KindComm, Channel("c"), 10*time.Microsecond)
	high.Priority = 5
	for _, task := range []*Task{low, high} {
		if err := g.addDependency(gate, task, DepComm); err != nil {
			t.Fatal(err)
		}
	}
	res, err := g.Simulate(WithScheduler(reversePriority{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Start[low.ID] != 10*time.Microsecond {
		t.Fatal("scheduler override not honored")
	}
}

// failingSched picks LIFO for the first n steps, then returns an
// out-of-range index, aborting the simulation mid-flight with a
// populated frontier.
type failingSched struct {
	steps *int
	n     int
}

func (s failingSched) Pick(frontier []*Task, _ *SchedContext) int {
	if *s.steps >= s.n {
		return len(frontier) // out of range → simulation error
	}
	*s.steps++
	return len(frontier) - 1
}

// TestScratchReuseAfterSchedulerError pins the error-path reset: a
// scheduler failure used to leave stale frontier entries in the scratch
// (the reset ran only on success), corrupting the next simulation that
// reused it. Every exit path must reset, so a post-error reuse matches
// a fresh-scratch run exactly.
func TestScratchReuseAfterSchedulerError(t *testing.T) {
	g := modelGraph(t, "resnet50")
	scratch := NewSimScratch()

	// Abort mid-simulation, after enough steps that the frontier is
	// non-trivial, and also on the very first pick.
	for _, failAt := range []int{0, 25} {
		steps := 0
		if _, err := g.Simulate(WithScratch(scratch), WithScheduler(failingSched{steps: &steps, n: failAt})); err == nil {
			t.Fatalf("failing scheduler (n=%d) did not error", failAt)
		}
		fresh, err := g.Simulate(WithScheduler(lifoScheduler{}))
		if err != nil {
			t.Fatal(err)
		}
		reused, err := g.Simulate(WithScratch(scratch), WithScheduler(lifoScheduler{}))
		if err != nil {
			t.Fatal(err)
		}
		assertSameSchedule(t, g, reused, fresh)
	}

	// A cycle error resets too: the next scheduled run on the shared
	// scratch still succeeds.
	cyc := NewGraph()
	a := cyc.newTask("a", trace.KindCPUOp, CPU(1), time.Microsecond)
	b := cyc.newTask("b", trace.KindCPUOp, CPU(2), time.Microsecond)
	if err := cyc.addDependency(a, b, DepCustom); err != nil {
		t.Fatal(err)
	}
	if err := cyc.addDependency(b, a, DepCustom); err != nil {
		t.Fatal(err)
	}
	if _, err := cyc.Simulate(WithScratch(scratch), WithScheduler(lifoScheduler{})); err == nil {
		t.Fatal("cycle did not error on the scheduled path")
	}
	fresh, err := g.Simulate(WithScheduler(lifoScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	reused, err := g.Simulate(WithScratch(scratch), WithScheduler(lifoScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSchedule(t, g, reused, fresh)
}

// TestSimulationInvariants checks, on a real model graph, the two
// correctness properties of Algorithm 1: no task starts before a parent
// finishes (plus gap), and tasks on one thread never overlap.
func TestSimulationInvariants(t *testing.T) {
	g := modelGraph(t, "densenet121")
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range g.Tasks() {
		uEnd := res.Start[u.ID] + u.Duration + u.Gap
		for _, c := range u.Children() {
			if res.Start[c.ID] < uEnd {
				t.Fatalf("dependency violated: %v starts %v before parent %v ends %v",
					c, res.Start[c.ID], u, uEnd)
			}
		}
	}
	for _, tid := range g.Threads() {
		tasks := g.ThreadTasks(tid)
		for i := 1; i < len(tasks); i++ {
			prevEnd := res.Start[tasks[i-1].ID] + tasks[i-1].Duration + tasks[i-1].Gap
			if res.Start[tasks[i].ID] < prevEnd {
				t.Fatalf("thread %v overlap at position %d", tid, i)
			}
		}
	}
}

func TestSimResultFinish(t *testing.T) {
	g, tasks := chain(1, 10*time.Microsecond)
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish(tasks[0]) != 10*time.Microsecond {
		t.Fatal("Finish wrong")
	}
}

func TestEmptyGraphSimulates(t *testing.T) {
	g := NewGraph()
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 {
		t.Fatal("empty graph has nonzero makespan")
	}
}

// parkGraph builds a graph in which each of two channels gets 64
// unplaced tasks ready at the same instant and 32 more that become ready
// one by one, as a chain of stream kernels reaches them, while the
// channel is still busy. Priorities and durations are mixed, and the
// late tasks can outrank the waiting ones. The two channels' task sets
// are identical, so their ends advance in step and their best waiting
// tasks tie on start and priority across threads.
func parkGraph(t *testing.T) *Graph {
	t.Helper()
	g, tasks := chain(1, 10*time.Microsecond)
	root := tasks[0]
	p := NewPatch(g)
	dep := func(from, to *Task) {
		if err := p.AddDependency(from, to, DepComm); err != nil {
			t.Fatal(err)
		}
	}
	stream := make([]*Task, 24)
	for i := range stream {
		stream[i] = p.NewTask("k", trace.KindKernel, Stream(2), 2*time.Microsecond)
		p.AppendTask(stream[i])
	}
	dep(root, stream[0])
	sink := p.NewTask("sink", trace.KindCPUOp, CPU(1), time.Microsecond)
	p.AppendTask(sink)
	dep(stream[len(stream)-1], sink)
	for _, ch := range []string{"c", "d"} {
		for i := 0; i < 96; i++ {
			u := p.NewTask(ch, trace.KindComm, Channel(ch), time.Duration(1+i%3)*time.Microsecond)
			u.Priority = (i*7)%5 - 2
			from := root
			if i >= 64 {
				from, u.Priority = stream[i%len(stream)], u.Priority+3
			}
			dep(from, u)
			dep(u, sink)
		}
	}
	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestHeapParksBusyThread drives the heap loop's parking (see
// parkGraph): all but the first of the tasks ready at once on a channel
// go stale behind their busy thread, and later ones join them there. Under the default order and a keyed policy,
// windowed and not, the heap loop must dispatch exactly as the same
// policy through Pick on the scheduled loop.
func TestHeapParksBusyThread(t *testing.T) {
	one := parkGraph(t)
	rep, err := one.Repeat(3)
	if err != nil {
		t.Fatal(err)
	}
	policies := []struct {
		name       string
		heap, pick Scheduler
	}{
		{"default", nil, wrappedEarliest{}},
		{"keyed", classByID{}, pickOnly{classByID{}}},
	}
	for _, g := range []*Graph{one, rep} {
		windows := []int{0}
		if g == rep {
			windows = append(windows, 1)
		}
		for _, pol := range policies {
			for _, window := range windows {
				name := fmt.Sprintf("%d rounds/%s/window %d", g.LayerPhaseIndex().Rounds(), pol.name, window)
				scratch := NewSimScratch()
				opts := func(s Scheduler) []SimOption {
					o := []SimOption{WithScratch(scratch)}
					if s != nil {
						o = append(o, WithScheduler(s))
					}
					if window > 0 {
						o = append(o, WithRoundWindow(window))
					}
					return o
				}
				got, err := g.Simulate(opts(pol.heap)...)
				if err != nil {
					t.Fatalf("%s: heap: %v", name, err)
				}
				parked := 0
				for _, p := range scratch.parked {
					parked = max(parked, cap(p))
				}
				if parked < 64 {
					t.Fatalf("%s: at most %d tasks parked on one thread, want ≥64", name, parked)
				}
				want, err := g.Simulate(opts(pol.pick)...)
				if err != nil {
					t.Fatalf("%s: scheduled: %v", name, err)
				}
				if got.Makespan != want.Makespan {
					t.Fatalf("%s: makespan %v, scheduled %v", name, got.Makespan, want.Makespan)
				}
				for _, task := range g.Tasks() {
					gs, gok := got.StartOf(task)
					ws, wok := want.StartOf(task)
					if gs != ws || gok != wok {
						t.Fatalf("%s: task %v starts at %v (retained %v), scheduled %v (retained %v)", name, task, gs, gok, ws, wok)
					}
				}
			}
		}
	}
}
