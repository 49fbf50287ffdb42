package core

import (
	"testing"
	"time"

	"daydream/internal/trace"
)

func TestPredicates(t *testing.T) {
	task := &Task{Name: "volta_sgemm_128x64", Kind: trace.KindKernel, Thread: Stream(7)}
	task.HasLayer, task.Layer, task.Phase = true, "fc", trace.Backward
	if !OnGPUPred(task) {
		t.Error("OnGPUPred failed")
	}
	if !NameContains("sgemm")(task) || NameContains("scudnn")(task) {
		t.Error("NameContains failed")
	}
	if !InPhase(trace.Backward)(task) || InPhase(trace.Forward)(task) {
		t.Error("InPhase failed")
	}
	if !InLayer("fc")(task) || InLayer("conv")(task) {
		t.Error("InLayer failed")
	}
	if !KindIs(trace.KindKernel)(task) {
		t.Error("KindIs failed")
	}
	if !And(OnGPUPred, NameContains("sgemm"))(task) {
		t.Error("And failed")
	}
	if And(OnGPUPred, NameContains("nope"))(task) {
		t.Error("And should short-circuit to false")
	}
	unmapped := &Task{Kind: trace.KindKernel, Thread: Stream(7)}
	if InPhase(trace.Backward)(unmapped) {
		t.Error("unmapped task matched a phase")
	}
}

func TestContains(t *testing.T) {
	cases := []struct {
		s, sub string
		want   bool
	}{
		{"hello", "ell", true}, {"hello", "", true}, {"hello", "hello", true},
		{"hello", "hellos", false}, {"", "x", false}, {"abc", "cb", false},
	}
	for _, c := range cases {
		if got := NameContains(c.sub)(&Task{Name: c.s}); got != c.want {
			t.Errorf("NameContains(%q) on %q = %v", c.sub, c.s, got)
		}
	}
}

func TestMeanDuration(t *testing.T) {
	if MeanDuration(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	tasks := []*Task{{Duration: 10}, {Duration: 20}, {Duration: 30}}
	if MeanDuration(tasks) != 20 {
		t.Error("mean wrong")
	}
}

func TestInsertKernel(t *testing.T) {
	g := NewGraph()
	us := time.Microsecond
	launch := g.NewTask("cudaLaunchKernel", trace.KindLaunch, CPU(1), 6*us)
	g.AppendTask(launch)
	kern := g.NewTask("k", trace.KindKernel, Stream(7), 50*us)
	g.AppendTask(kern)
	if err := g.Correlate(launch, kern); err != nil {
		t.Fatal(err)
	}

	nl, nk, err := g.InsertKernel(KernelInsertion{
		Name:        "gist_encode",
		Duration:    10 * us,
		LaunchAfter: launch,
		Layer:       "relu1",
		LayerIndex:  3,
		Phase:       trace.Forward,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nl.Thread != CPU(1) || nk.Thread != Stream(7) {
		t.Fatal("inserted tasks on wrong threads")
	}
	if nk.Peer() != nl || nl.Peer() != nk {
		t.Fatal("inserted pair not correlated")
	}
	if !nk.HasLayer || nk.Layer != "relu1" || nk.Phase != trace.Forward {
		t.Fatal("layer tagging lost")
	}
	// Stream order: original kernel, then the inserted one.
	order := g.ThreadTasks(Stream(7))
	if len(order) != 2 || order[1] != nk {
		t.Fatalf("stream order wrong: %v", order)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Simulation respects the insertion.
	res, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Start[nk.ID] < res.Start[kern.ID]+kern.Duration {
		t.Fatal("inserted kernel overlaps its anchor")
	}
}

func TestInsertKernelErrors(t *testing.T) {
	g := NewGraph()
	if _, _, err := g.InsertKernel(KernelInsertion{Name: "x"}); err == nil {
		t.Fatal("missing anchor accepted")
	}
	cpu := g.NewTask("op", trace.KindCPUOp, CPU(1), time.Microsecond)
	g.AppendTask(cpu)
	if _, _, err := g.InsertKernel(KernelInsertion{Name: "x", LaunchAfter: cpu}); err == nil {
		t.Fatal("no stream anchor accepted")
	}
	// With an explicit stream it works even without a peer anchor.
	if _, _, err := g.InsertKernel(KernelInsertion{
		Name: "x", LaunchAfter: cpu, Stream: Stream(7),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatStructure(t *testing.T) {
	g := modelGraph(t, "resnet50")
	n := g.NumTasks()
	rep, err := g.Repeat(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumTasks() != 3*n {
		t.Fatalf("repeated tasks = %d, want %d", rep.NumTasks(), 3*n)
	}
	rounds := map[int]int{}
	for _, task := range rep.Tasks() {
		rounds[task.Round]++
	}
	for r := 0; r < 3; r++ {
		if rounds[r] != n {
			t.Fatalf("round %d has %d tasks, want %d", r, rounds[r], n)
		}
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatSteadyState(t *testing.T) {
	// For a synchronous single-worker iteration the steady-state period
	// of the doubled graph equals the single-iteration makespan.
	g := modelGraph(t, "gnmt")
	single, err := g.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Repeat(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rep.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	period := RoundSpan(rep, res, 1) - RoundSpan(rep, res, 0)
	diff := float64(period-single) / float64(single)
	if diff < -0.02 || diff > 0.02 {
		t.Fatalf("steady period %v vs single %v (%.2f%%)", period, single, 100*diff)
	}
}

func TestRepeatErrors(t *testing.T) {
	g, _ := chain(2, time.Microsecond)
	if _, err := g.Repeat(0); err == nil {
		t.Fatal("Repeat(0) accepted")
	}
}

func TestRepeatIsolatesRounds(t *testing.T) {
	g, _ := chain(2, 10*time.Microsecond)
	rep, err := g.Repeat(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rep.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 runs strictly after round 0 on the shared thread.
	if RoundSpan(rep, res, 1) != 2*RoundSpan(rep, res, 0) {
		t.Fatalf("rounds not chained: %v vs %v",
			RoundSpan(rep, res, 1), RoundSpan(rep, res, 0))
	}
}

func TestScaleByOneIsIdentity(t *testing.T) {
	g := modelGraph(t, "resnet50")
	before, err := g.Clone().PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	Scale(c.Select(OnGPUPred), 1.0)
	after, err := c.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("Scale(1.0) changed the prediction: %v vs %v", before, after)
	}
}
