package core

import (
	"testing"
	"time"

	"daydream/internal/trace"
)

func TestCriticalPathSerialChain(t *testing.T) {
	g, tasks := chain(3, 10*time.Microsecond)
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	path := CriticalPath(g, res)
	if len(path) != 3 {
		t.Fatalf("path length = %d, want 3", len(path))
	}
	for i := range path {
		if path[i] != tasks[i] {
			t.Fatalf("path[%d] = %v, want %v", i, path[i], tasks[i])
		}
	}
}

func TestCriticalPathPicksLongerThread(t *testing.T) {
	g := NewGraph()
	short := g.newTask("short", trace.KindCPUOp, CPU(1), 5*time.Microsecond)
	g.appendTask(short)
	long := g.newTask("long", trace.KindKernel, Stream(7), 50*time.Microsecond)
	g.appendTask(long)
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	path := CriticalPath(g, res)
	if len(path) != 1 || path[0] != long {
		t.Fatalf("path = %v, want just the long kernel", path)
	}
}

func TestCriticalPathCrossThread(t *testing.T) {
	// launch → kernel → sync: all three are binding.
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
	path := CriticalPath(g, res)
	if len(path) != 3 || path[0] != launch || path[1] != kernel || path[2] != sync {
		t.Fatalf("path = %v, want launch→kernel→sync", path)
	}
}

func TestCriticalPathCoversMakespan(t *testing.T) {
	// On a real model graph, the path's total time accounts for the
	// whole makespan (no unexplained slack along the binding chain
	// when the chain reaches back to time zero).
	g := modelGraph(t, "resnet50")
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	path := CriticalPath(g, res)
	if len(path) < 10 {
		t.Fatalf("suspiciously short critical path: %d tasks", len(path))
	}
	var sum time.Duration
	for _, u := range path {
		sum += u.Duration + u.Gap
	}
	if first := path[0]; res.Start[first.ID] == 0 && sum != res.Makespan {
		t.Fatalf("zero-anchored path sums to %v, makespan %v", sum, res.Makespan)
	}
	if sum > res.Makespan {
		t.Fatalf("path time %v exceeds makespan %v", sum, res.Makespan)
	}
}

// TestCriticalPathZeroDurationRoot pins the zero-start fix: a task that
// starts at time zero because a zero-duration parent finished at zero is
// still bound by that parent — the walk must not truncate the chain at
// start == 0.
func TestCriticalPathZeroDurationRoot(t *testing.T) {
	g := NewGraph()
	root := g.newTask("zero-root", trace.KindCPUOp, CPU(1), 0)
	g.appendTask(root)
	kernel := g.newTask("k", trace.KindKernel, Stream(7), 30*time.Microsecond)
	g.appendTask(kernel)
	if err := g.addDependency(root, kernel, DepCustom); err != nil {
		t.Fatal(err)
	}
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Start[kernel.ID] != 0 {
		t.Fatalf("kernel starts at %v, want 0", res.Start[kernel.ID])
	}
	path := CriticalPath(g, res)
	if len(path) != 2 || path[0] != root || path[1] != kernel {
		t.Fatalf("path = %v, want zero-root→kernel", path)
	}
	// Same through a zero-duration sequence predecessor.
	g2 := NewGraph()
	seqRoot := g2.newTask("seq-root", trace.KindCPUOp, CPU(1), 0)
	g2.appendTask(seqRoot)
	op := g2.newTask("op", trace.KindCPUOp, CPU(1), 20*time.Microsecond)
	g2.appendTask(op)
	res2, err := g2.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	path2 := CriticalPath(g2, res2)
	if len(path2) != 2 || path2[0] != seqRoot {
		t.Fatalf("sequence path = %v, want seq-root→op", path2)
	}
}

// TestCriticalPathViewOverPatch checks CriticalPathView reads effective
// adjacency and sequence links through a structural patch: the path of
// the patched scenario equals the path of the materialized graph, task
// ID for task ID, without materializing for the diagnosis itself.
func TestCriticalPathViewOverPatch(t *testing.T) {
	g, tasks := chain(3, 10*time.Microsecond)
	p := NewPatch(g)
	// Gate a long appendix comm task on the first chain task and feed it
	// into the last, stretching the critical path through the appendix.
	c := p.NewTask("comm", trace.KindComm, Channel("x"), 100*time.Microsecond)
	if err := p.AddDependency(tasks[0], c, DepComm); err != nil {
		t.Fatal(err)
	}
	if err := p.AddDependency(c, tasks[2], DepComm); err != nil {
		t.Fatal(err)
	}
	res, err := p.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	got := CriticalPathView(p, res)
	if p.Materializations() != 0 {
		t.Fatalf("diagnosing the patch materialized %d times, want 0", p.Materializations())
	}

	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	mres, err := m.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	want := CriticalPathView(m, mres)
	if len(got) != len(want) {
		t.Fatalf("path length: view %d, materialized %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("path[%d]: view task %d, materialized task %d", i, got[i].ID, want[i].ID)
		}
	}
	// The path routes through the appendix task.
	through := false
	for _, u := range got {
		if u == c {
			through = true
		}
	}
	if !through {
		t.Fatalf("path %v does not include the appendix comm task", got)
	}
	// Effective-timing attribution sums to the path's simulated time.
	att := AttributePathSim(res, got, ByThreadKind)
	var total time.Duration
	for _, a := range att {
		total += a.Time
	}
	var pathTime time.Duration
	for _, u := range got {
		pathTime += res.TaskDuration(u) + res.TaskGap(u)
	}
	if total != pathTime {
		t.Fatalf("AttributePathSim sums to %v, path time %v", total, pathTime)
	}
}

func TestCriticalPathEmptyGraph(t *testing.T) {
	g := NewGraph()
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if path := CriticalPath(g, res); path != nil {
		t.Fatalf("empty graph has a path: %v", path)
	}
}

func TestAttributePath(t *testing.T) {
	g := modelGraph(t, "bert-base")
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	path := CriticalPath(g, res)
	byKind := AttributePathSim(res, path, ByThreadKind)
	if len(byKind) == 0 {
		t.Fatal("no attribution groups")
	}
	var total time.Duration
	for _, a := range byKind {
		total += a.Time
		if a.Tasks <= 0 {
			t.Fatalf("group %q has no tasks", a.Label)
		}
	}
	// Attribution partitions the path.
	var pathTime time.Duration
	for _, u := range path {
		pathTime += u.Duration + u.Gap
	}
	if total != pathTime {
		t.Fatalf("attribution sums to %v, path is %v", total, pathTime)
	}
	// Sorted descending.
	for i := 1; i < len(byKind); i++ {
		if byKind[i].Time > byKind[i-1].Time {
			t.Fatal("attribution not sorted")
		}
	}
	// Phase attribution also works.
	byPhase := AttributePathSim(res, path, ByPhase)
	if len(byPhase) == 0 {
		t.Fatal("no phase attribution")
	}
}
