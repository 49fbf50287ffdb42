package core

import "time"

// TaskView is the read-only task set a simulation, measurement, report
// or scheduling policy reads from: a *Graph, or a *Patch viewing a
// shared baseline through copy-on-write timing and structural deltas.
// Tasks come back in creation order. Consumers must treat the tasks and
// every returned slice as read-only; a Patch reuses the Tasks slice's
// backing array across calls.
//
// Beyond enumeration, the view exposes the *effective* per-task
// attributes — duration, gap, priority, thread, dependency parents and
// children, sequence links. For a *Graph these are the raw Task fields;
// for a *Patch they read through the copy-on-write deltas, so code
// written against the view (scheduling policies, CriticalPathView,
// Measure functions) works identically over both without cloning or
// materializing anything.
type TaskView interface {
	// Tasks returns the live tasks in creation order.
	Tasks() []*Task
	// Task returns the live task with the given ID, or nil.
	Task(id int) *Task
	// IDSpan returns the exclusive upper bound of effective task IDs;
	// SimResult.Start has this length.
	IDSpan() int
	// NumTasks returns the number of live tasks.
	NumTasks() int
	// Duration returns the task's effective duration under the view.
	Duration(t *Task) time.Duration
	// Gap returns the task's effective gap under the view.
	Gap(t *Task) time.Duration
	// Priority returns the task's effective scheduling priority.
	Priority(t *Task) int
	// Thread returns the execution thread the task occupies.
	Thread(t *Task) ThreadID
	// Parents returns the task's effective dependency parents.
	Parents(t *Task) []*Task
	// Children returns the task's effective dependents.
	Children(t *Task) []*Task
	// SeqPrev returns the previous task on the task's execution thread
	// in the effective sequence, or nil.
	SeqPrev(t *Task) *Task
	// SeqNext returns the next task on the task's execution thread in
	// the effective sequence, or nil.
	SeqNext(t *Task) *Task
}

// Graph's TaskView accessors read the raw Task fields — the graph IS
// its own effective view.

// Duration returns t.Duration (TaskView).
func (g *Graph) Duration(t *Task) time.Duration { return t.Duration }

// Gap returns t.Gap (TaskView).
func (g *Graph) Gap(t *Task) time.Duration { return t.Gap }

// Priority returns t.Priority (TaskView).
func (g *Graph) Priority(t *Task) int { return t.Priority }

// Thread returns t.Thread (TaskView).
func (g *Graph) Thread(t *Task) ThreadID { return t.Thread }

// Parents returns the task's dependency parents (TaskView). The slice
// must not be modified.
func (g *Graph) Parents(t *Task) []*Task { return t.parents }

// Children returns the task's dependents (TaskView). The slice must not
// be modified.
func (g *Graph) Children(t *Task) []*Task { return t.children }

// SeqPrev returns the previous task on the same thread, or nil
// (TaskView).
func (g *Graph) SeqPrev(t *Task) *Task { return t.seqPrev }

// SeqNext returns the next task on the same thread, or nil (TaskView).
func (g *Graph) SeqNext(t *Task) *Task { return t.seqNext }

// Patch's TaskView accessors read through the structural deltas; a
// patch with none reads the baseline's own links without allocating.
// Its Tasks/Task/IDSpan/NumTasks live in patch.go and its
// Duration/Gap/Priority in timing.go.

// Thread returns t.Thread (TaskView). Appendix tasks carry the thread
// their placement primitive assigned.
func (p *Patch) Thread(t *Task) ThreadID { return t.Thread }

// Parents returns the task's live effective dependency parents: the
// unmasked baseline parents in baseline order followed by patch-added
// in-edges in addition order — exactly the parent order the
// materialized graph would carry (TaskView). The slice is fresh unless
// the patch is not Structural; either way it must not be modified.
func (p *Patch) Parents(t *Task) []*Task {
	if !p.Structural() {
		return t.parents
	}
	return p.effParents(t)
}

// Children returns the task's live effective dependents, unmasked
// baseline children first, patch-added edges after (TaskView). The
// slice is fresh unless the patch is not Structural; either way it must
// not be modified.
func (p *Patch) Children(t *Task) []*Task {
	if !p.Structural() {
		return t.children
	}
	return p.effChildren(t)
}

// SeqPrev returns the previous task in the effective thread sequence,
// or nil (TaskView).
func (p *Patch) SeqPrev(t *Task) *Task { return p.effSeqPrev(t) }

// SeqNext returns the next task in the effective thread sequence, or
// nil (TaskView).
func (p *Patch) SeqNext(t *Task) *Task { return p.effSeqNext(t) }
