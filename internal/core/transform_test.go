package core

import (
	"testing"
	"time"

	"daydream/internal/trace"
)

func TestPredicates(t *testing.T) {
	task := &Task{Name: "volta_sgemm_128x64", Kind: trace.KindKernel, Thread: Stream(7)}
	task.HasLayer, task.Layer, task.Phase = true, "fc", trace.Backward
	if !NameContains("sgemm")(task) || NameContains("scudnn")(task) {
		t.Error("NameContains failed")
	}
	if !ComputeIntensivePred(task) {
		t.Error("ComputeIntensivePred missed an sgemm kernel")
	}
	if ComputeIntensivePred(&Task{Name: "elementwise_add", Kind: trace.KindKernel, Thread: Stream(7)}) {
		t.Error("ComputeIntensivePred matched an element-wise kernel")
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
	// A repeat of a repeat would relabel round 1 as round 0 of its copy.
	rep, err := g.Repeat(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2} {
		if _, err := rep.Repeat(n); err == nil {
			t.Fatalf("Repeat(%d) of a Repeat(2) accepted", n)
		}
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
	p := NewPatch(g)
	for _, u := range g.Select((*Task).OnGPU) {
		p.ScaleDuration(u, 1.0)
	}
	after, err := p.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("ScaleDuration(1.0) changed the prediction: %v vs %v", before, after)
	}
}
