package core

import (
	"testing"
	"time"

	"daydream/internal/trace"
)

// chain builds a graph with n sequential CPU tasks of the given duration.
func chain(n int, dur time.Duration) (*Graph, []*Task) {
	g := NewGraph()
	tasks := make([]*Task, n)
	for i := 0; i < n; i++ {
		t := g.NewTask("op", trace.KindCPUOp, CPU(1), dur)
		g.AppendTask(t)
		tasks[i] = t
	}
	return g, tasks
}

func TestThreadIDString(t *testing.T) {
	if CPU(1).String() != "cpu:1" || Stream(7).String() != "stream:7" ||
		Channel("nccl").String() != "channel:nccl" {
		t.Error("ThreadID strings wrong")
	}
}

func TestDepKindString(t *testing.T) {
	want := map[DepKind]string{
		DepSequence: "sequence", DepCorrelation: "correlation",
		DepSync: "sync", DepComm: "comm", DepCustom: "custom",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestAppendCreatesSequenceEdges(t *testing.T) {
	g, tasks := chain(3, time.Microsecond)
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	for i := 0; i < 2; i++ {
		k, ok := g.EdgeKind(tasks[i], tasks[i+1])
		if !ok || k != DepSequence {
			t.Fatalf("edge %d→%d kind = %v, ok=%v", i, i+1, k, ok)
		}
	}
	if tasks[1].SeqPrev() != tasks[0] || tasks[1].SeqNext() != tasks[2] {
		t.Fatal("sequence links wrong")
	}
}

func TestInsertAfter(t *testing.T) {
	g, tasks := chain(2, time.Microsecond)
	mid := g.NewTask("inserted", trace.KindCPUOp, CPU(1), time.Microsecond)
	if err := g.InsertAfter(tasks[0], mid); err != nil {
		t.Fatal(err)
	}
	order := g.ThreadTasks(CPU(1))
	if len(order) != 3 || order[1] != mid {
		t.Fatalf("thread order wrong: %v", order)
	}
	// The old direct edge must be gone; the spliced chain present.
	if _, ok := g.EdgeKind(tasks[0], tasks[1]); ok {
		t.Fatal("stale sequence edge kept after insert")
	}
	if _, ok := g.EdgeKind(tasks[0], mid); !ok {
		t.Fatal("missing edge to inserted task")
	}
	if _, ok := g.EdgeKind(mid, tasks[1]); !ok {
		t.Fatal("missing edge from inserted task")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAfterTail(t *testing.T) {
	g, tasks := chain(1, time.Microsecond)
	end := g.NewTask("tail", trace.KindCPUOp, CPU(1), time.Microsecond)
	if err := g.InsertAfter(tasks[0], end); err != nil {
		t.Fatal(err)
	}
	order := g.ThreadTasks(CPU(1))
	if order[len(order)-1] != end {
		t.Fatal("insert at tail failed")
	}
	// Appending afterwards must link after the new tail.
	extra := g.NewTask("extra", trace.KindCPUOp, CPU(1), time.Microsecond)
	g.AppendTask(extra)
	if end.SeqNext() != extra {
		t.Fatal("tail pointer stale after InsertAfter")
	}
}

func TestInsertBeforeHead(t *testing.T) {
	g, tasks := chain(2, time.Microsecond)
	head := g.NewTask("head", trace.KindCPUOp, CPU(1), time.Microsecond)
	if err := g.InsertBefore(tasks[0], head); err != nil {
		t.Fatal(err)
	}
	order := g.ThreadTasks(CPU(1))
	if order[0] != head {
		t.Fatalf("head insert failed: %v", order)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertErrors(t *testing.T) {
	g, _ := chain(1, time.Microsecond)
	if err := g.InsertAfter(nil, g.NewTask("x", trace.KindCPUOp, CPU(1), 0)); err == nil {
		t.Error("nil anchor accepted")
	}
	other := NewGraph()
	foreign := other.NewTask("f", trace.KindCPUOp, CPU(1), 0)
	other.AppendTask(foreign)
	if err := g.InsertAfter(foreign, g.NewTask("y", trace.KindCPUOp, CPU(1), 0)); err == nil {
		t.Error("foreign anchor accepted")
	}
}

func TestRemoveSplicesSequence(t *testing.T) {
	g, tasks := chain(3, time.Microsecond)
	g.Remove(tasks[1])
	order := g.ThreadTasks(CPU(1))
	if len(order) != 2 || order[0] != tasks[0] || order[1] != tasks[2] {
		t.Fatalf("splice failed: %v", order)
	}
	if k, ok := g.EdgeKind(tasks[0], tasks[2]); !ok || k != DepSequence {
		t.Fatal("sequence not restored across removal")
	}
	if g.NumTasks() != 2 {
		t.Fatal("task not deleted")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemovePreservesTransitiveOrder(t *testing.T) {
	// a → victim (custom), victim → b (custom): removing victim must
	// keep a before b.
	g := NewGraph()
	a := g.NewTask("a", trace.KindKernel, Stream(7), time.Microsecond)
	g.AppendTask(a)
	victim := g.NewTask("victim", trace.KindKernel, Stream(7), time.Microsecond)
	g.AppendTask(victim)
	b := g.NewTask("b", trace.KindSync, CPU(1), time.Microsecond)
	g.AppendTask(b)
	if err := g.AddDependency(victim, b, DepSync); err != nil {
		t.Fatal(err)
	}
	g.Remove(victim)
	if _, ok := g.EdgeKind(a, b); !ok {
		t.Fatal("transitive ordering a→b lost")
	}
}

func TestRemoveHeadAndTail(t *testing.T) {
	g, tasks := chain(3, time.Microsecond)
	g.Remove(tasks[0])
	g.Remove(tasks[2])
	order := g.ThreadTasks(CPU(1))
	if len(order) != 1 || order[0] != tasks[1] {
		t.Fatalf("head/tail removal left %v", order)
	}
	// New appends must chain after the surviving task.
	nt := g.NewTask("new", trace.KindCPUOp, CPU(1), 0)
	g.AppendTask(nt)
	if tasks[1].SeqNext() != nt {
		t.Fatal("tail pointer stale after removals")
	}
}

func TestRemoveIdempotent(t *testing.T) {
	g, tasks := chain(2, time.Microsecond)
	g.Remove(tasks[0])
	g.Remove(tasks[0]) // second removal is a no-op
	if g.NumTasks() != 1 {
		t.Fatal("double remove corrupted the graph")
	}
}

func TestAddDependencyErrors(t *testing.T) {
	g, tasks := chain(2, time.Microsecond)
	if err := g.AddDependency(tasks[0], tasks[0], DepCustom); err == nil {
		t.Error("self edge accepted")
	}
	if err := g.AddDependency(nil, tasks[0], DepCustom); err == nil {
		t.Error("nil endpoint accepted")
	}
	// Duplicate edges collapse.
	before := g.NumEdges()
	if err := g.AddDependency(tasks[0], tasks[1], DepCustom); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != before {
		t.Error("duplicate edge stored")
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	g, tasks := chain(2, time.Microsecond)
	if err := g.AddDependency(tasks[1], tasks[0], DepCustom); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestCorrelate(t *testing.T) {
	g := NewGraph()
	api := g.NewTask("cudaLaunchKernel", trace.KindLaunch, CPU(1), time.Microsecond)
	g.AppendTask(api)
	kern := g.NewTask("k", trace.KindKernel, Stream(7), time.Microsecond)
	g.AppendTask(kern)
	if err := g.Correlate(api, kern); err != nil {
		t.Fatal(err)
	}
	if api.Peer() != kern || kern.Peer() != api {
		t.Fatal("peers not linked")
	}
	if k, ok := g.EdgeKind(api, kern); !ok || k != DepCorrelation {
		t.Fatal("correlation edge missing")
	}
	g.Remove(kern)
	if api.Peer() != nil {
		t.Fatal("dangling peer after removal")
	}
}

func TestCloneIndependence(t *testing.T) {
	g, tasks := chain(3, time.Microsecond)
	g.Meta.Model = "m"
	g.Meta.Gradients = []trace.GradientInfo{{Layer: "l", Bytes: 1}}
	c := g.Clone()
	// Mutate the clone in every way.
	c.Task(tasks[1].ID).Duration = time.Hour
	c.Remove(c.Task(tasks[0].ID))
	c.Meta.Gradients[0].Bytes = 99
	if tasks[1].Duration == time.Hour {
		t.Fatal("clone shares task storage")
	}
	if g.NumTasks() != 3 {
		t.Fatal("removal on clone affected original")
	}
	if g.Meta.Gradients[0].Bytes == 99 {
		t.Fatal("clone shares metadata storage")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClonePreservesSimulation(t *testing.T) {
	g, _ := chain(5, time.Microsecond)
	orig, err := g.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	cloned, err := g.Clone().PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if orig != cloned {
		t.Fatalf("clone simulates differently: %v vs %v", orig, cloned)
	}
}

func TestSelectOrder(t *testing.T) {
	g, tasks := chain(4, time.Microsecond)
	tasks[1].Name = "pick"
	tasks[3].Name = "pick"
	got := g.Select(NameContains("pick"))
	if len(got) != 2 || got[0] != tasks[1] || got[1] != tasks[3] {
		t.Fatalf("Select order wrong: %v", got)
	}
}

func TestScale(t *testing.T) {
	g, tasks := chain(2, 10*time.Microsecond)
	p := NewPatch(g)
	p.ScaleDuration(tasks[0], 0.5)
	if d := p.Duration(tasks[0]); d != 5*time.Microsecond {
		t.Fatalf("scaled duration = %v", d)
	}
	if tasks[0].Duration != 10*time.Microsecond {
		t.Fatalf("baseline duration written: %v", tasks[0].Duration)
	}
}

func TestThreadsSorted(t *testing.T) {
	g := NewGraph()
	for _, tid := range []ThreadID{Channel("z"), Stream(9), CPU(2), CPU(1), Channel("a")} {
		task := g.NewTask("t", kindFor(tid), tid, 0)
		g.AppendTask(task)
	}
	ths := g.Threads()
	want := []ThreadID{CPU(1), CPU(2), Stream(9), Channel("a"), Channel("z")}
	for i := range want {
		if ths[i] != want[i] {
			t.Fatalf("Threads()[%d] = %v, want %v", i, ths[i], want[i])
		}
	}
}

func kindFor(tid ThreadID) trace.Kind {
	switch tid.Kind {
	case GPUStream:
		return trace.KindKernel
	case CommChannel:
		return trace.KindComm
	}
	return trace.KindCPUOp
}
