package whatif_test

import (
	"testing"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/whatif"
)

// pickOnly hides a policy's Class, so the simulator runs it through Pick
// on the scheduled loop, over every task of the view.
type pickOnly struct{ s core.Scheduler }

func (p pickOnly) Pick(frontier []*core.Task, ctx *core.SchedContext) int {
	return p.s.Pick(frontier, ctx)
}

// TestPipelineKeyedMatchesPick holds the pipeline policy on the heap
// loop — keyed, with the superseded baseline skipped, stacked after a
// timing what-if or not — to the same policy through Pick over the full
// task set, bit for bit, across the zoo and both schedules.
func TestPipelineKeyedMatchesPick(t *testing.T) {
	if _, ok := core.Scheduler(whatif.PipelineScheduler{}).(core.KeyedScheduler); !ok {
		t.Fatal("PipelineScheduler is not keyed")
	}
	for _, model := range dnn.Names() {
		g := profile(t, model, framework.PyTorch)
		for _, spec := range []string{"pipeline:2x4", "pipeline:4x8:gpipe", "amp+pipeline:3x5"} {
			t.Run(model+"/"+spec, func(t *testing.T) { keyedMatchesPick(t, g, spec) })
		}
	}
}

// TestVDNNKeyedMatchesPick holds vDNN's copy-stream policy on the heap
// loop, where its copies queue behind one another on the copy channel,
// to the same policy through Pick, across the zoo.
func TestVDNNKeyedMatchesPick(t *testing.T) {
	if _, ok := core.Scheduler(whatif.VDNNScheduler{}).(core.KeyedScheduler); !ok {
		t.Fatal("VDNNScheduler is not keyed")
	}
	for _, model := range dnn.Names() {
		g := profile(t, model, framework.PyTorch)
		for _, spec := range []string{"vdnn", "amp+vdnn"} {
			t.Run(model+"/"+spec, func(t *testing.T) { keyedMatchesPick(t, g, spec) })
		}
	}
}

// keyedMatchesPick applies spec to a patch over g and fails unless its
// carried policy simulates the same on the heap loop as through Pick.
func keyedMatchesPick(t *testing.T, g *core.Graph, spec string) {
	t.Helper()
	opt, err := whatif.ParseStack(spec, whatif.OptParams{})
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPatch(g)
	if err := opt.Apply(p); err != nil {
		t.Skip(err) // too few layers for the stage count
	}
	s := core.OptScheduler(opt)
	got, err := p.Simulate(core.WithScheduler(s))
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Simulate(core.WithScheduler(pickOnly{s}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("makespan %v, through Pick %v", got.Makespan, want.Makespan)
	}
	for _, task := range p.Tasks() {
		if got.Start[task.ID] != want.Start[task.ID] || got.TaskDuration(task) != want.TaskDuration(task) || got.TaskGap(task) != want.TaskGap(task) {
			t.Fatalf("task %v: (%v, %v, %v), through Pick (%v, %v, %v)", task,
				got.Start[task.ID], got.TaskDuration(task), got.TaskGap(task),
				want.Start[task.ID], want.TaskDuration(task), want.TaskGap(task))
		}
	}
	if len(got.ThreadEnd) != len(want.ThreadEnd) {
		t.Fatalf("%d thread ends, through Pick %d", len(got.ThreadEnd), len(want.ThreadEnd))
	}
	for tid, end := range want.ThreadEnd {
		if e, ok := got.ThreadEnd[tid]; !ok || e != end {
			t.Fatalf("thread %v ends at %v, through Pick %v", tid, e, end)
		}
	}
}
