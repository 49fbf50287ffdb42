package core

import "time"

// A Patch's timing tier holds per-task duration/gap/priority deltas over
// baseline tasks — all that a timing-only what-if (AMP, fused
// optimizers modeled as rescaling, kernel profiles, device upgrades,
// bandwidth and duration grids) writes. The baseline's tasks, adjacency
// and thread sequences are read in place, so any number of patches can
// share one baseline concurrently as long as nothing mutates it.
//
// Edits are stored sparsely (a map keyed by task ID) while few, and
// densely (flat per-ID slices) past a crossover, so both a two-kernel
// profile tweak and an all-GPU-task rescale stay cheap. Densification
// and simulation start from the baseline's compiled form — flat timing
// arrays and the thread layout, memoized on the Graph itself and shared
// by every patch over it — so they are memcpy-and-index work rather
// than pointer chasing. Reset reads the graph's current form, so
// rebinding costs a pointer load. The form is dropped by the graph's
// structural mutators (NewTask, Remove, InsertAfter, InsertBefore) and
// MapLayers, so a patch Reset onto a graph that grew since sees the
// grown graph. Task timing fields written in place after a patch has
// read the graph are not seen: Clone the graph and edit the clone
// instead.

// editDur/editGap/editPrio mark which fields of a timingEdit are set.
const (
	editDur = 1 << iota
	editGap
	editPrio
)

// timingEdit is one sparse per-task override record.
type timingEdit struct {
	dur  time.Duration
	gap  time.Duration
	prio int
	set  uint8
}

// snapshot returns the baseline's compiled form, building the graph's
// memo when Reset found none. The form is shared with every other view
// of the graph and read-only. The baseline must not be mutated while
// the patch is bound to it: Reset after a structural edit.
func (p *Patch) snapshot() *baseForm {
	if p.form == nil {
		p.form = p.base.compiledBase()
	}
	return p.form
}

// crossover is the sparse-edit count past which the timing tier
// densifies: beyond it, per-read map lookups cost more than
// materializing flat arrays once.
func (p *Patch) crossover() int {
	return max(len(p.base.tasks)/8, 64)
}

// EstimateConeSize estimates, before any warm schedule exists, the
// affected cone of the patch's timing delta over baseline tasks: an
// upper bound on how many tasks an incremental re-simulation could
// recompute, along with the baseline's task span. The bound takes
// everything at or after the earliest edited ID — trace-built graphs
// assign IDs in record order, so schedule order tracks ID order
// closely. Batching callers (the sweep's tier chooser) route
// near-total cones straight to a cold replay: a handful of edits at
// the very front of the iteration invalidates almost the whole warm
// schedule, so arming and building incremental state would cost a
// cold simulation only to fall back anyway. A delta past the
// dense-storage crossover (more than max(64, tasks/8) edited tasks)
// reports a total cone; an empty one reports 0.
func (p *Patch) EstimateConeSize() (cone, total int) {
	total = len(p.base.tasks)
	if p.dense {
		return total, total
	}
	if len(p.sparse) == 0 {
		return 0, total
	}
	first := total
	for id := range p.sparse {
		first = min(first, id)
	}
	return total - first, total
}

// densify materializes the dense per-ID arrays from the baseline's
// form plus the sparse edits, then retires the map.
func (p *Patch) densify() {
	f := p.snapshot()
	n := len(p.base.tasks)
	p.dur = resize(p.dur, n)
	p.gap = resize(p.gap, n)
	p.prio = resize(p.prio, n)
	copy(p.dur, f.dur)
	copy(p.gap, f.gap)
	copy(p.prio, f.prio)
	for id, e := range p.sparse {
		if e.set&editDur != 0 {
			p.dur[id] = e.dur
		}
		if e.set&editGap != 0 {
			p.gap[id] = e.gap
		}
		if e.set&editPrio != 0 {
			p.prio[id] = e.prio
		}
		delete(p.sparse, id)
	}
	p.dense = true
}

// putSparse stores one sparse edit, densifying past the crossover.
func (p *Patch) putSparse(id int, e timingEdit) {
	if p.sparse == nil {
		p.sparse = make(map[int]timingEdit)
	}
	p.sparse[id] = e
	if len(p.sparse) > p.crossover() {
		p.densify()
	}
}

// Duration returns the task's effective duration under the patch.
// Appendix tasks are private to the patch, so their fields are read
// directly.
func (p *Patch) Duration(t *Task) time.Duration {
	if !p.isAppendix(t) {
		if p.dense {
			return p.dur[t.ID]
		}
		if e, ok := p.sparse[t.ID]; ok && e.set&editDur != 0 {
			return e.dur
		}
	}
	return t.Duration
}

// Gap returns the task's effective gap under the patch.
func (p *Patch) Gap(t *Task) time.Duration {
	if !p.isAppendix(t) {
		if p.dense {
			return p.gap[t.ID]
		}
		if e, ok := p.sparse[t.ID]; ok && e.set&editGap != 0 {
			return e.gap
		}
	}
	return t.Gap
}

// Priority returns the task's effective scheduling priority.
func (p *Patch) Priority(t *Task) int {
	if !p.isAppendix(t) {
		if p.dense {
			return p.prio[t.ID]
		}
		if e, ok := p.sparse[t.ID]; ok && e.set&editPrio != 0 {
			return e.prio
		}
	}
	return t.Priority
}

// SetDuration overrides the task's duration without touching the
// baseline; an appendix task's own field is written.
func (p *Patch) SetDuration(t *Task, d time.Duration) {
	if p.isAppendix(t) {
		t.Duration = d
		p.mat = nil
		return
	}
	p.gen++
	p.zeroed = p.zeroed && d == 0
	if p.dense {
		p.dur[t.ID] = d
		return
	}
	e := p.sparse[t.ID]
	e.dur, e.set = d, e.set|editDur
	p.putSparse(t.ID, e)
}

// SetGap overrides the task's gap without touching the baseline.
func (p *Patch) SetGap(t *Task, d time.Duration) {
	if p.isAppendix(t) {
		t.Gap = d
		p.mat = nil
		return
	}
	p.gen++
	p.zeroed = p.zeroed && d == 0
	if p.dense {
		p.gap[t.ID] = d
		return
	}
	e := p.sparse[t.ID]
	e.gap, e.set = d, e.set|editGap
	p.putSparse(t.ID, e)
}

// SetPriority overrides the task's scheduling priority without touching
// the baseline. Priority edits drive the default earliest-start
// scheduler's tie-breaking exactly as mutated priorities would, and a
// custom Scheduler sees them through SchedContext.Priority.
func (p *Patch) SetPriority(t *Task, prio int) {
	if p.isAppendix(t) {
		t.Priority = prio
		p.mat = nil
		return
	}
	p.prioEdited = true
	p.gen++
	if p.dense {
		p.prio[t.ID] = prio
		return
	}
	e := p.sparse[t.ID]
	e.prio, e.set = prio, e.set|editPrio
	p.putSparse(t.ID, e)
}

// ScaleDuration multiplies the task's effective duration by factor,
// with the same arithmetic as the Scale primitive.
func (p *Patch) ScaleDuration(t *Task, factor float64) {
	p.SetDuration(t, time.Duration(float64(p.Duration(t))*factor))
}

// SupersedeBaseline sets every baseline task's effective duration and
// gap to zero in one step: the baseline's execution contributes nothing
// to the makespan while its dependency structure stays valid (removal
// without Remove's reconnection cascade). Appendix tasks keep their
// timings and priorities are kept. When nothing else in the patch
// reaches the baseline — no structural edit touches a baseline task or
// edge, and no appendix task runs on a baseline thread — an unwindowed
// Simulate under the default policy or a KeyedScheduler skips the
// baseline's tasks altogether: they start at 0 whatever the order.
func (p *Patch) SupersedeBaseline() {
	if !p.dense {
		p.densify()
	}
	clear(p.dur)
	clear(p.gap)
	p.zeroed = true
	p.gen++
}

// fillTiming writes the effective per-ID durations and gaps of the
// baseline's ID span into dur and gap, starting from the form f.
func (p *Patch) fillTiming(f *baseForm, dur, gap []time.Duration) {
	if p.dense {
		copy(dur, p.dur)
		copy(gap, p.gap)
		return
	}
	copy(dur, f.dur)
	copy(gap, f.gap)
	for id, e := range p.sparse {
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
func (p *Patch) fillPriority(f *baseForm, prio []int) {
	if p.dense {
		copy(prio, p.prio)
		return
	}
	copy(prio, f.prio)
	for id, e := range p.sparse {
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
