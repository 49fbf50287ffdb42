package core

import (
	"testing"
	"time"

	"daydream/internal/trace"
)

// chainGraph builds a small two-thread graph with a cross-thread edge:
//
//	cpu: a(10,gap 5) → b(20)      (sequence)
//	gpu: k1(30) → k2(40)          (sequence)
//	a —corr→ k1, b —corr→ k2
func chainGraph(t *testing.T) (*Graph, []*Task) {
	t.Helper()
	g := NewGraph()
	a := g.NewTask("launchA", trace.KindLaunch, CPU(0), 10)
	a.Gap = 5
	g.AppendTask(a)
	b := g.NewTask("launchB", trace.KindLaunch, CPU(0), 20)
	g.AppendTask(b)
	k1 := g.NewTask("sgemm_k1", trace.KindKernel, Stream(7), 30)
	g.AppendTask(k1)
	k2 := g.NewTask("elemwise_k2", trace.KindKernel, Stream(7), 40)
	g.AppendTask(k2)
	if err := g.Correlate(a, k1); err != nil {
		t.Fatal(err)
	}
	if err := g.Correlate(b, k2); err != nil {
		t.Fatal(err)
	}
	return g, []*Task{a, b, k1, k2}
}

// The TestOverlay… tests hold a patch's timing tier (the one the sweep
// reports as its overlay tier) to the clone path.

func TestOverlayReadsFallThrough(t *testing.T) {
	g, ts := chainGraph(t)
	o := NewPatch(g)
	if got := o.Duration(ts[2]); got != 30 {
		t.Fatalf("unedited Duration = %v, want 30", got)
	}
	if got := o.Gap(ts[0]); got != 5 {
		t.Fatalf("unedited Gap = %v, want 5", got)
	}
	o.SetDuration(ts[2], 300)
	o.SetGap(ts[0], 50)
	o.SetPriority(ts[3], 9)
	if got := o.Duration(ts[2]); got != 300 {
		t.Fatalf("edited Duration = %v, want 300", got)
	}
	if got := o.Gap(ts[0]); got != 50 {
		t.Fatalf("edited Gap = %v, want 50", got)
	}
	if got := o.Priority(ts[3]); got != 9 {
		t.Fatalf("edited Priority = %v, want 9", got)
	}
	// Baseline untouched.
	if ts[2].Duration != 30 || ts[0].Gap != 5 || ts[3].Priority != 0 {
		t.Fatal("patch timing edit leaked into the baseline graph")
	}
	// Editing one field leaves the others falling through.
	if got := o.Gap(ts[2]); got != 0 {
		t.Fatalf("Gap of duration-edited task = %v, want 0", got)
	}
	if got := o.Duration(ts[0]); got != 10 {
		t.Fatalf("Duration of gap-edited task = %v, want 10", got)
	}
}

func TestOverlayDensifyCrossover(t *testing.T) {
	g := NewGraph()
	var tasks []*Task
	for i := 0; i < 2000; i++ {
		tk := g.NewTask("k", trace.KindKernel, Stream(7), time.Duration(i+1))
		g.AppendTask(tk)
		tasks = append(tasks, tk)
	}
	o := NewPatch(g)
	// Force a sparse edit of every task: must cross over to dense and
	// still read back every value correctly.
	for i, tk := range tasks {
		o.SetDuration(tk, time.Duration(10*(i+1)))
	}
	if !o.dense {
		t.Fatalf("patch with %d edits over %d tasks did not densify", len(tasks), len(tasks))
	}
	for i, tk := range tasks {
		if got := o.Duration(tk); got != time.Duration(10*(i+1)) {
			t.Fatalf("task %d: Duration = %v, want %v", i, got, 10*(i+1))
		}
	}
	// Unedited fields still read the baseline through the dense arrays.
	if got := o.Gap(tasks[0]); got != 0 {
		t.Fatalf("dense Gap = %v, want 0", got)
	}
	// Reset clears the edits (dense mode may stick — it re-materializes
	// from the baseline snapshot — but every read must see baseline
	// values again).
	o.Reset(g)
	for i, tk := range tasks {
		if got := o.Duration(tk); got != time.Duration(i+1) {
			t.Fatalf("after Reset, task %d Duration = %v, want %v", i, got, i+1)
		}
	}
	// Rebinding to a different graph drops the dense state entirely.
	g2 := NewGraph()
	k := g2.NewTask("k", trace.KindKernel, Stream(7), 123)
	g2.AppendTask(k)
	o.Reset(g2)
	if o.dense {
		t.Fatal("Reset to a new baseline left the patch dense")
	}
	if got := o.Duration(k); got != 123 {
		t.Fatalf("after rebind, Duration = %v, want 123", got)
	}
}

// TestOverlaySimulateMatchesMutatedClone is the core equivalence
// property of the timing tier: simulating a timing-only patch equals
// clone-mutate-simulate, bit for bit.
func TestOverlaySimulateMatchesMutatedClone(t *testing.T) {
	g, ts := chainGraph(t)
	o := NewPatch(g)
	o.SetDuration(ts[2], 3) // shrink sgemm kernel
	o.SetGap(ts[0], 50)     // stretch the launch gap
	o.SetDuration(ts[1], 0) // zero a launch

	c := g.Clone()
	c.Task(ts[2].ID).Duration = 3
	c.Task(ts[0].ID).Gap = 50
	c.Task(ts[1].ID).Duration = 0

	want, err := c.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("patch makespan %v, clone makespan %v", got.Makespan, want.Makespan)
	}
	for id := range want.Start {
		if got.Start[id] != want.Start[id] {
			t.Fatalf("task %d start: patch %v, clone %v", id, got.Start[id], want.Start[id])
		}
	}
	// The result reads effective timings.
	if got.TaskDuration(ts[2]) != 3 {
		t.Fatalf("TaskDuration = %v, want 3", got.TaskDuration(ts[2]))
	}
	if got.TaskGap(ts[0]) != 50 {
		t.Fatalf("TaskGap = %v, want 50", got.TaskGap(ts[0]))
	}
	if got.Finish(ts[2]) != got.Start[ts[2].ID]+3 {
		t.Fatal("Finish did not use the patch duration")
	}
}

// TestOverlayPriorityTieBreak checks patched priorities drive the
// default scheduler's tie-breaking exactly as mutated priorities do.
func TestOverlayPriorityTieBreak(t *testing.T) {
	// Two unchained tasks competing for one channel (the P3 pattern:
	// NewTask without AppendTask, serialized only by thread progress),
	// so the scheduler's priority tie-break decides who goes first.
	g := NewGraph()
	ch := Channel("net")
	a := g.NewTask("a", trace.KindComm, ch, 10)
	b := g.NewTask("b", trace.KindComm, ch, 10)
	// In the baseline, a (lower ID) wins the tie and runs first.
	base, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if !(base.Start[a.ID] == 0 && base.Start[b.ID] == 10) {
		t.Fatalf("baseline tie-break: a=%v b=%v", base.Start[a.ID], base.Start[b.ID])
	}

	// Clone path: boost b's priority.
	c := g.Clone()
	c.Task(b.ID).Priority = 5
	want, err := c.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	// Patch path: same boost as a delta.
	o := NewPatch(g)
	o.SetPriority(b, 5)
	got, err := o.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Start[b.ID] != 0 || got.Start[a.ID] != 10 {
		t.Fatalf("patch priority ignored: a=%v b=%v", got.Start[a.ID], got.Start[b.ID])
	}
	for id := range want.Start {
		if got.Start[id] != want.Start[id] {
			t.Fatalf("task %d start: patch %v, clone %v", id, got.Start[id], want.Start[id])
		}
	}
}

// TestOverlayCustomScheduler checks the slice-frontier path reads a
// timing-only patch's timings.
func TestOverlayCustomScheduler(t *testing.T) {
	g, ts := chainGraph(t)
	o := NewPatch(g)
	o.SetDuration(ts[2], 300)

	c := g.Clone()
	c.Task(ts[2].ID).Duration = 300

	want, err := c.Simulate(WithScheduler(lifoScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.Simulate(WithScheduler(lifoScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("scheduled patch makespan %v, clone %v", got.Makespan, want.Makespan)
	}
	for id := range want.Start {
		if got.Start[id] != want.Start[id] {
			t.Fatalf("task %d start: patch %v, clone %v", id, got.Start[id], want.Start[id])
		}
	}
}

// lifoScheduler picks the most recently enabled frontier task — a
// deliberately non-default policy.
type lifoScheduler struct{}

func (lifoScheduler) Pick(frontier []*Task, _ *SchedContext) int {
	return len(frontier) - 1
}

// TestResultBufferReuse checks WithResultBuffer round-trips between
// patch and plain simulations without leaking stale state.
func TestResultBufferReuse(t *testing.T) {
	g, ts := chainGraph(t)
	buf := &SimResult{}

	o := NewPatch(g)
	o.SetDuration(ts[2], 300)
	ores, err := o.Simulate(WithResultBuffer(buf))
	if err != nil {
		t.Fatal(err)
	}
	if ores != buf {
		t.Fatal("patch Simulate did not return the supplied buffer")
	}
	if ores.TaskDuration(ts[2]) != 300 {
		t.Fatalf("buffered patch TaskDuration = %v, want 300", ores.TaskDuration(ts[2]))
	}
	patchMakespan := ores.Makespan

	// Reusing the same buffer for a plain simulation must drop the
	// patch timings.
	pres, err := g.Simulate(WithResultBuffer(buf))
	if err != nil {
		t.Fatal(err)
	}
	if pres.TaskDuration(ts[2]) != 30 {
		t.Fatalf("plain TaskDuration through reused buffer = %v, want 30", pres.TaskDuration(ts[2]))
	}
	fresh, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if pres.Makespan != fresh.Makespan {
		t.Fatalf("reused-buffer makespan %v, fresh %v", pres.Makespan, fresh.Makespan)
	}
	if pres.Makespan == patchMakespan {
		t.Fatal("plain simulation inherited patch timings")
	}
	for id := range fresh.Start {
		if pres.Start[id] != fresh.Start[id] {
			t.Fatalf("task %d start: reused buffer %v, fresh %v", id, pres.Start[id], fresh.Start[id])
		}
	}
}

// TestOverlayCriticalPathUsesEffectiveTimings checks CriticalPath reads
// a timing-only patch's durations via the result.
func TestOverlayCriticalPathUsesEffectiveTimings(t *testing.T) {
	g, ts := chainGraph(t)
	o := NewPatch(g)
	o.SetDuration(ts[3], 4000) // k2 dominates under the patch

	res, err := o.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	path := CriticalPath(g, res)
	if len(path) == 0 || path[len(path)-1] != ts[3] {
		t.Fatalf("critical path should end at the patched kernel, got %v", path)
	}

	c := g.Clone()
	c.Task(ts[3].ID).Duration = 4000
	cres, err := c.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	cpath := CriticalPath(c, cres)
	if len(cpath) != len(path) {
		t.Fatalf("path lengths differ: patch %d, clone %d", len(path), len(cpath))
	}
	for i := range path {
		if path[i].ID != cpath[i].ID {
			t.Fatalf("path[%d]: patch #%d, clone #%d", i, path[i].ID, cpath[i].ID)
		}
	}
}

// TestOverlayModelGraphEquivalence runs the full property on a real
// profiled graph: dense (every GPU task halved) and sparse (three
// tasks) timing patches both match their clone counterparts exactly.
func TestOverlayModelGraphEquivalence(t *testing.T) {
	g := modelGraph(t, "resnet50")
	gpu := g.LayerPhaseIndex().GPUTasks()
	if len(gpu) == 0 {
		t.Fatal("no GPU tasks")
	}

	t.Run("dense", func(t *testing.T) {
		o := NewPatch(g)
		for _, u := range gpu {
			o.SetDuration(u, o.Duration(u)/2)
		}
		c := g.Clone()
		for _, u := range c.Tasks() {
			if u.OnGPU() {
				u.Duration /= 2
			}
		}
		assertSimEqual(t, o, c)
	})
	t.Run("sparse", func(t *testing.T) {
		o := NewPatch(g)
		picks := []*Task{gpu[0], gpu[len(gpu)/2], gpu[len(gpu)-1]}
		for _, u := range picks {
			o.SetDuration(u, u.Duration*7)
		}
		c := g.Clone()
		for _, u := range picks {
			c.Task(u.ID).Duration = u.Duration * 7
		}
		assertSimEqual(t, o, c)
	})
}

// assertSimEqual simulates the patch and the mutated clone and
// requires bit-identical makespan and starts.
func assertSimEqual(t *testing.T, o *Patch, c *Graph) {
	t.Helper()
	got, err := o.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("makespan: patch %v, clone %v", got.Makespan, want.Makespan)
	}
	for id := range want.Start {
		if got.Start[id] != want.Start[id] {
			t.Fatalf("task %d start: patch %v, clone %v", id, got.Start[id], want.Start[id])
		}
	}
}

// prioViewScheduler is a view-generic priority policy: among the tasks
// ready earliest it picks the highest *effective* priority — patched
// priorities included, which a legacy scheduler could never see.
type prioViewScheduler struct{}

func (prioViewScheduler) Pick(frontier []*Task, ctx *SchedContext) int {
	best := -1
	var bestT time.Duration
	var bestPrio int
	for i, task := range frontier {
		et := ctx.EffStart(task)
		p := ctx.Priority(task)
		switch {
		case best < 0, et < bestT, et == bestT && p > bestPrio:
			best, bestT, bestPrio = i, et, p
		}
	}
	return best
}

// TestOverlayPriorityWithCustomScheduler checks a view-generic custom
// scheduler reads patched priorities through the SchedContext and
// reproduces the clone path bit for bit.
func TestOverlayPriorityWithCustomScheduler(t *testing.T) {
	g, ts := chainGraph(t)
	o := NewPatch(g)
	o.SetPriority(ts[3], 9)

	c := g.Clone()
	c.Task(ts[3].ID).Priority = 9
	want, err := c.Simulate(WithScheduler(prioViewScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.Simulate(WithScheduler(prioViewScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("scheduled patch makespan %v, clone %v", got.Makespan, want.Makespan)
	}
	for id := range want.Start {
		if got.Start[id] != want.Start[id] {
			t.Fatalf("task %d start: patch %v, clone %v", id, got.Start[id], want.Start[id])
		}
	}

	// The default scheduler keeps working.
	if _, err := o.Simulate(); err != nil {
		t.Fatal(err)
	}
}

// pathSink keeps the reference path growth on the heap, as the
// returned critical path is.
var pathSink []*Task

// TestTimingPatchReadsAllocateNothing checks that a patch with no
// structural deltas reads the baseline's adjacency in place: its
// Parents, Children, SeqPrev and SeqNext allocate nothing, so a critical
// path walk over it (or a custom scheduler reading SchedContext.View)
// costs what the same walk over the graph costs, the path alone.
func TestTimingPatchReadsAllocateNothing(t *testing.T) {
	g := modelGraph(t, "resnet50")
	p := NewPatch(g)
	for _, u := range g.LayerPhaseIndex().GPUTasks() {
		p.SetDuration(u, p.Duration(u)/2)
	}
	res, err := p.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	tasks := p.Tasks()
	reads := testing.AllocsPerRun(5, func() {
		for _, u := range tasks {
			_ = p.Parents(u)
			_ = p.Children(u)
			_ = p.SeqPrev(u)
			_ = p.SeqNext(u)
		}
	})
	if reads != 0 {
		t.Fatalf("reading a timing-only patch's links allocated %v times per pass, want 0", reads)
	}
	path := CriticalPathView(p, res)
	if len(path) < 2 {
		t.Fatalf("critical path has %d tasks", len(path))
	}
	walk := testing.AllocsPerRun(5, func() { CriticalPathView(p, res) })
	grow := testing.AllocsPerRun(5, func() {
		var out []*Task
		for _, u := range path {
			out = append(out, u)
		}
		pathSink = out
	})
	if walk-grow != 0 {
		t.Fatalf("CriticalPathView over a timing-only patch allocated %v times beyond its %v-task path's %v, want 0", walk-grow, len(path), grow)
	}
}
