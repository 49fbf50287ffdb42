package core

import (
	"fmt"
	"time"
)

// Overlay views a shared immutable baseline Graph through per-task
// duration/gap/priority deltas — a copy-on-write layer for what-if
// scenarios that never touch graph structure (AMP, fused optimizers
// modeled as rescaling, kernel profiles, device upgrades, bandwidth and
// duration grids). Instead of paying a full Clone per scenario, such a
// scenario records only its timing edits and simulates through them:
// the baseline's tasks, adjacency and thread sequences are read in
// place, so any number of overlays can share one baseline concurrently
// as long as nothing mutates it.
//
// Edits are stored sparsely (a map keyed by task ID) while few, and
// densely (flat per-ID slices) past a crossover, so both a two-kernel
// profile tweak and an all-GPU-task rescale stay cheap. Densification
// and simulation start from the baseline's compiled form — flat timing
// arrays and the thread layout, memoized on the Graph itself and shared
// by every view over it — so they are memcpy-and-index work rather than
// pointer chasing. An Overlay is
// not safe for concurrent use itself; the sharing model is one overlay
// per goroutine over one shared baseline. Reset rebinds an overlay to a
// (possibly different) baseline while keeping its storage, which is how
// the sweep worker pool makes scenario evaluation allocation-free;
// rebinding reads the graph's current form, so it costs a pointer load.
//
// The form is dropped by the graph's structural mutators (NewTask,
// Remove, InsertAfter, InsertBefore) and MapLayers, so an overlay Reset
// onto a graph that grew since sees the grown graph. Task timing fields
// written in place after a view has read the graph are not seen: Clone
// the graph and edit the clone instead.
type Overlay struct {
	base *Graph

	// Sparse storage below the crossover.
	sparse map[int]overlayEdit
	// Dense storage past the crossover: full effective-value arrays,
	// materialized from the baseline's form and overwritten in
	// place. Dense mode is sticky across Reset (re-materializing is a
	// memcpy), so a worker evaluating bulk-edit scenarios pays the
	// sparse map only once.
	dense bool
	dur   []time.Duration
	gap   []time.Duration
	prio  []int

	// prioEdited records whether any priority was overlaid; when false
	// the simulation reads Task.Priority directly.
	prioEdited bool
	// zeroed records that every baseline task's effective duration and
	// gap is zero: set by zeroBaseline, cleared by any non-zero timing
	// edit and by Reset.
	zeroed bool

	// scratch is the simulation working set of runs given no
	// WithScratch, kept so a reused overlay (or a patch over it) does not
	// reallocate it per simulation.
	scratch *SimScratch

	// gen counts timing edits (and rebinds); consumers that memoize
	// state derived from the overlay's effective values — a Patch's
	// materialization cache — compare generations to invalidate.
	gen uint64

	// form is the baseline's compiled form, read from the graph's memo
	// on Reset and, when the graph had none yet, on first use.
	form *baseForm
}

// editDur/editGap/editPrio mark which fields of an overlayEdit are set.
const (
	editDur = 1 << iota
	editGap
	editPrio
)

// overlayEdit is one sparse per-task override record.
type overlayEdit struct {
	dur  time.Duration
	gap  time.Duration
	prio int
	set  uint8
}

// NewOverlay returns an empty overlay over the baseline graph.
func NewOverlay(g *Graph) *Overlay {
	o := &Overlay{}
	o.Reset(g)
	return o
}

// Base returns the baseline graph the overlay views.
func (o *Overlay) Base() *Graph { return o.base }

// Reset drops every edit and rebinds the overlay to the given baseline
// (which may be the current one), retaining the allocated storage and
// reading the baseline's current compiled form.
func (o *Overlay) Reset(g *Graph) {
	var f *baseForm
	if g != nil {
		f = g.form.Load()
	}
	if f == nil || f != o.form {
		// New baseline, or one whose form was dropped or not built yet.
		o.dense = false
	} else if o.dense {
		// Same form: stay dense, re-materialize by memcpy.
		copy(o.dur, f.dur)
		copy(o.gap, f.gap)
		copy(o.prio, f.prio)
	}
	o.base, o.form = g, f
	o.prioEdited = false
	o.zeroed = false
	o.gen++
	for id := range o.sparse {
		delete(o.sparse, id)
	}
}

// generation returns the edit counter (see gen).
func (o *Overlay) generation() uint64 { return o.gen }

// snapshot returns the baseline's compiled form, building the graph's
// memo when Reset found none. The form is shared with every other view
// of the graph and read-only. The baseline must not be mutated while
// the overlay is bound to it: Reset after a structural edit.
func (o *Overlay) snapshot() *baseForm {
	if o.form == nil {
		o.form = o.base.compiledBase()
	}
	return o.form
}

// crossover is the sparse-edit count past which the overlay densifies:
// beyond it, per-read map lookups cost more than materializing flat
// arrays once.
func (o *Overlay) crossover() int {
	n := len(o.base.tasks) / 8
	if n < 64 {
		n = 64
	}
	return n
}

// DenseEdits reports whether the overlay has accumulated enough
// distinct edits to switch to dense per-ID storage (more than
// max(64, tasks/8) edited tasks). A dense delta's affected cone is
// close to the whole schedule, so callers batching what-ifs — the
// sweep's worker pool — use this as the cheap "will incremental
// re-simulation pay off?" signal before building warm state;
// IncrementalSim.ReSimulate applies its own exact per-call cutoff
// regardless.
func (o *Overlay) DenseEdits() bool { return o.dense }

// EstimateConeSize estimates, before any warm schedule exists, the
// affected cone of the overlay's timing delta: an upper bound on how
// many tasks an incremental re-simulation could recompute, along with
// the baseline's task span. The bound takes everything at or after the
// earliest edited ID — trace-built graphs assign IDs in record order,
// so schedule order tracks ID order closely. Batching callers (the
// sweep's tier chooser) route near-total cones straight to overlay
// replay: a handful of edits at the very front of the iteration
// invalidates almost the whole warm schedule, so arming and building
// incremental state would cost a cold simulation only to fall back
// anyway. A dense overlay reports a total cone.
func (o *Overlay) EstimateConeSize() (cone, total int) {
	total = len(o.base.tasks)
	if o.dense {
		return total, total
	}
	if len(o.sparse) == 0 {
		return 0, total
	}
	min := total
	for id := range o.sparse {
		if id < min {
			min = id
		}
	}
	return total - min, total
}

// densify materializes the dense per-ID arrays from the baseline's
// form plus the sparse edits, then retires the map.
func (o *Overlay) densify() {
	f := o.snapshot()
	n := len(o.base.tasks)
	o.dur = resize(o.dur, n)
	o.gap = resize(o.gap, n)
	o.prio = resize(o.prio, n)
	copy(o.dur, f.dur)
	copy(o.gap, f.gap)
	copy(o.prio, f.prio)
	for id, e := range o.sparse {
		if e.set&editDur != 0 {
			o.dur[id] = e.dur
		}
		if e.set&editGap != 0 {
			o.gap[id] = e.gap
		}
		if e.set&editPrio != 0 {
			o.prio[id] = e.prio
		}
		delete(o.sparse, id)
	}
	o.dense = true
}

// Duration returns the task's effective duration under the overlay.
func (o *Overlay) Duration(t *Task) time.Duration {
	if o.dense {
		return o.dur[t.ID]
	}
	if e, ok := o.sparse[t.ID]; ok && e.set&editDur != 0 {
		return e.dur
	}
	return t.Duration
}

// Gap returns the task's effective gap under the overlay.
func (o *Overlay) Gap(t *Task) time.Duration {
	if o.dense {
		return o.gap[t.ID]
	}
	if e, ok := o.sparse[t.ID]; ok && e.set&editGap != 0 {
		return e.gap
	}
	return t.Gap
}

// Priority returns the task's effective priority under the overlay.
func (o *Overlay) Priority(t *Task) int {
	if o.dense {
		return o.prio[t.ID]
	}
	if e, ok := o.sparse[t.ID]; ok && e.set&editPrio != 0 {
		return e.prio
	}
	return t.Priority
}

// SetDuration overrides the task's duration without touching the
// baseline.
func (o *Overlay) SetDuration(t *Task, d time.Duration) {
	o.gen++
	o.zeroed = o.zeroed && d == 0
	if o.dense {
		o.dur[t.ID] = d
		return
	}
	if o.sparse == nil {
		o.sparse = make(map[int]overlayEdit)
	}
	e := o.sparse[t.ID]
	e.dur, e.set = d, e.set|editDur
	o.sparse[t.ID] = e
	if len(o.sparse) > o.crossover() {
		o.densify()
	}
}

// SetGap overrides the task's gap without touching the baseline.
func (o *Overlay) SetGap(t *Task, d time.Duration) {
	o.gen++
	o.zeroed = o.zeroed && d == 0
	if o.dense {
		o.gap[t.ID] = d
		return
	}
	if o.sparse == nil {
		o.sparse = make(map[int]overlayEdit)
	}
	e := o.sparse[t.ID]
	e.gap, e.set = d, e.set|editGap
	o.sparse[t.ID] = e
	if len(o.sparse) > o.crossover() {
		o.densify()
	}
}

// SetPriority overrides the task's scheduling priority without touching
// the baseline. Priority overlays drive the default earliest-start
// scheduler's tie-breaking exactly as mutated priorities would, and a
// custom Scheduler sees them through SchedContext.Priority.
func (o *Overlay) SetPriority(t *Task, p int) {
	o.prioEdited = true
	o.gen++
	if o.dense {
		o.prio[t.ID] = p
		return
	}
	if o.sparse == nil {
		o.sparse = make(map[int]overlayEdit)
	}
	e := o.sparse[t.ID]
	e.prio, e.set = p, e.set|editPrio
	o.sparse[t.ID] = e
	if len(o.sparse) > o.crossover() {
		o.densify()
	}
}

// zeroBaseline sets every baseline task's effective duration and gap to
// zero in one dense write; priorities are kept.
func (o *Overlay) zeroBaseline() {
	if !o.dense {
		o.densify()
	}
	clear(o.dur)
	clear(o.gap)
	o.zeroed = true
	o.gen++
}

// ScaleDuration multiplies the task's effective duration by factor,
// with the same arithmetic as the Scale primitive.
func (o *Overlay) ScaleDuration(t *Task, factor float64) {
	o.SetDuration(t, time.Duration(float64(o.Duration(t))*factor))
}

// fillTiming writes the effective per-ID durations and gaps of the
// baseline's ID span into dur and gap, starting from the form f.
func (o *Overlay) fillTiming(f *baseForm, dur, gap []time.Duration) {
	if o.dense {
		copy(dur, o.dur)
		copy(gap, o.gap)
		return
	}
	copy(dur, f.dur)
	copy(gap, f.gap)
	for id, e := range o.sparse {
		if e.set&editDur != 0 {
			dur[id] = e.dur
		}
		if e.set&editGap != 0 {
			gap[id] = e.gap
		}
	}
}

// fillPriority writes the effective per-ID priorities of the baseline's
// ID span into prio, starting from the form f.
func (o *Overlay) fillPriority(f *baseForm, prio []int) {
	if o.dense {
		copy(prio, o.prio)
		return
	}
	copy(prio, f.prio)
	for id, e := range o.sparse {
		if e.set&editPrio != 0 {
			prio[id] = e.prio
		}
	}
}

// resize returns s at length n, reusing its capacity. Growing an
// allocation leaves a quarter of headroom, so a grid whose ID span grows
// from row to row (a longer pipeline appendix each time) reallocates
// once, not on every row. A first allocation is exact: storage that is
// never regrown, such as a one-shot simulation's, pays nothing for it.
// Reused elements keep their old values.
func resize[T any](s []T, n int) []T {
	switch {
	case cap(s) == 0:
		return make([]T, n)
	case cap(s) < n:
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// Simulate executes Algorithm 1 over the baseline graph with the
// overlay's timings — the clone-free counterpart of Graph.Simulate. The
// baseline is only read; the returned result carries the effective
// timings, so SimResult.Finish, TaskDuration and CriticalPath see the
// overlaid values. Results are bit-identical to cloning the baseline,
// applying the same edits to the clone's tasks, and simulating the
// clone.
func (o *Overlay) Simulate(opts ...SimOption) (*SimResult, error) {
	so, err := newSimOptions(opts, &o.scratch)
	if err != nil {
		return nil, err
	}
	if o.base == nil {
		return nil, fmt.Errorf("core: Overlay.Simulate: overlay has no baseline graph")
	}
	return o.compile(&so, len(o.base.tasks)).simulate(&so)
}

// compile compiles the overlaid baseline: the baseline's structure and
// its form's thread layout read in place, with effective timings (and
// priorities, when overlaid) in per-ID arrays sized for an ID span of n
// — room past the baseline's span is left for a patch appendix.
func (o *Overlay) compile(so *simOptions, n int) *simForm {
	base := o.snapshot()
	dur, gap := so.timings(n)
	o.fillTiming(base, dur, gap)
	s := so.scratch
	f := &s.form
	*f = simForm{view: o, tasks: o.base.tasks, live: o.base.live, dur: dur, gap: gap, threadOf: base.threadOf, threadIDs: base.threadIDs}
	if o.prioEdited {
		s.prio = resize(s.prio, n)
		o.fillPriority(base, s.prio)
		f.prio = s.prio
	}
	return f
}

// Materialize returns a private clone of the baseline with the
// overlay's effective timings written into its tasks — the graph the
// equivalent clone-path scenario would have produced. The sweep uses it
// to honor KeepGraphs' private-graph contract for overlay scenarios.
func (o *Overlay) Materialize() *Graph {
	c := o.base.Clone()
	for id, bt := range o.base.tasks {
		if bt == nil {
			continue
		}
		ct := c.tasks[id]
		ct.Duration = o.Duration(bt)
		ct.Gap = o.Gap(bt)
		ct.Priority = o.Priority(bt)
	}
	return c
}

// PredictIteration simulates the overlaid baseline and returns the
// makespan — the predicted iteration time under the overlay's edits.
func (o *Overlay) PredictIteration(opts ...SimOption) (time.Duration, error) {
	res, err := o.Simulate(opts...)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}
