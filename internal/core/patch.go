package core

import (
	"fmt"
	"time"

	"daydream/internal/trace"
)

// Patch is a copy-on-write view of an immutable baseline Graph that
// layers structural deltas — task additions, task removals, edge
// additions and removals with kinds, sequence splices — on top of
// per-task timing deltas (see timing.go). It is the unified application
// surface of the what-if system: every Optimization applies itself to a
// Patch, timing-only models write only the timing tier, and structural
// models (Distributed's all-reduce insertion, P3's push/pull
// annotation, removal-form batchnorm restructuring) record their
// surgery without ever cloning the baseline.
//
// The view semantics mirror the Graph primitives exactly:
//
//   - NewTask allocates appendix tasks in the ID range [base.IDSpan(),
//     base.IDSpan()+added), the same IDs a clone would have handed out,
//     so simulation results are positionally interchangeable with the
//     clone path's.
//   - AppendTask / InsertAfter / InsertBefore splice the per-thread
//     sequence through override links; the baseline's own links are
//     never touched.
//   - AddDependency / RemoveDependency edit the effective edge set;
//     RemoveTask reproduces Graph.Remove's transitive-ordering
//     reconnection on the effective adjacency.
//
// Patch.Simulate compiles the composite view into the flat form every
// view simulates through: baseline tasks read through the delta arrays,
// appendix tasks live past the baseline's ID span, removed tasks are
// masked, and only tasks whose out-edges changed get their own child
// lists. Results are bit-identical to cloning the baseline, applying
// the same operations to the clone, and simulating it — the property
// internal/whatif's patch equivalence suite enforces across the model
// zoo.
//
// A Patch additionally journals its structural operations, so
// Materialize can replay them onto a private graph for callers that
// need a real *Graph.
//
// A Patch is not safe for concurrent use; the sharing model is one
// patch per goroutine over one shared baseline (the sweep worker pool
// owns one per worker and Reset rebinds it per scenario, reusing all
// storage). Correlation peers are a per-task property the patch cannot
// rewrite: RemoveTask leaves the baseline's Peer links untouched (the
// materialized replay clears them on the private copy, as Graph.Remove
// does).
type Patch struct {
	base *Graph

	// Timing tier (timing.go): sparse per-task edits below the
	// crossover, dense effective-value arrays past it, materialized from
	// the baseline's form and overwritten in place. Dense mode is sticky
	// across a Reset to the same form (re-materializing is a memcpy), so
	// a worker evaluating bulk-edit scenarios pays the sparse map only
	// once.
	sparse   map[int]timingEdit
	dense    bool
	dur, gap []time.Duration
	prio     []int
	// prioEdited records whether any baseline priority was edited; when
	// false the simulation reads Task.Priority directly.
	prioEdited bool
	// zeroed records that every baseline task's effective duration and
	// gap is zero: set by SupersedeBaseline, cleared by any non-zero
	// timing edit and by Reset.
	zeroed bool
	// gen counts timing edits and rebinds; the materialization memo
	// compares it to invalidate.
	gen uint64
	// form is the baseline's compiled form, read from the graph's memo
	// on Reset and, when the graph had none yet, on first use.
	form *baseForm
	// scratch is the simulation working set of runs given no
	// WithScratch, kept so a reused patch does not reallocate it.
	scratch *SimScratch

	// added is the appendix: tasks created through the patch, with IDs
	// continuing the baseline's ID space in creation order.
	added []*Task
	// removed masks task IDs (baseline or appendix) deleted by
	// RemoveTask.
	removed map[int]struct{}
	// removedEdges masks baseline edges by {from, to} ID pair.
	removedEdges map[[2]int]struct{}
	// addedOut holds the patch-added out-edges keyed by source ID, and
	// addedIn the patch-added in-edge sources per target ID in addition
	// order — both the indegree contribution Simulate folds into its
	// reference counts and the deterministic parent order effParents
	// appends after the baseline's (matching the materialized graph's).
	addedOut       map[int][]patchEdge
	addedIn        map[int][]*Task
	addedEdgeCount int

	// Sequence-chain overrides: present keys shadow the baseline's
	// seqPrev/seqNext links and per-thread head/tail (a nil value means
	// "end of chain" / "empty thread").
	seqNextOv map[int]*Task
	seqPrevOv map[int]*Task
	headOv    map[ThreadID]*Task
	tailOv    map[ThreadID]*Task

	// ops is the structural journal, replayed by materializeInto.
	ops []patchOp

	// Materialization memo: mat is the last Materialize result, valid
	// while the structural journal length and the timing edit
	// generation still match the values captured at materialization.
	// matCount counts actual clone+replay materializations, for the
	// double-materialization regression tests.
	mat      *Graph
	matOps   int
	matGen   uint64
	matCount int

	// tasksView is Tasks' reusable result storage.
	tasksView []*Task
}

// patchEdge is one patch-added edge endpoint.
type patchEdge struct {
	to   *Task
	kind DepKind
}

// patchOp is one journaled structural operation.
type patchOp struct {
	kind   opKind
	t      *Task // subject (new task, removed task, edge target)
	anchor *Task // insertion anchor / edge source
	dep    DepKind
}

type opKind uint8

const (
	opNewTask opKind = iota
	opAppendTask
	opInsertAfter
	opInsertBefore
	opAddDep
	opRemoveDep
	opRemoveTask
)

// NewPatch returns an empty patch over the baseline graph.
func NewPatch(g *Graph) *Patch {
	p := &Patch{}
	p.Reset(g)
	return p
}

// ensureStructural lazily allocates the structural delta maps on the
// first structural mutator call. A pure-timing patch (the common case
// for timing-only sweeps) therefore never allocates them; every read
// path tolerates the nil maps (nil-map reads, ranges and clears are
// all no-ops in Go).
func (p *Patch) ensureStructural() {
	if p.removed != nil {
		return
	}
	p.removed = make(map[int]struct{})
	p.removedEdges = make(map[[2]int]struct{})
	p.addedOut = make(map[int][]patchEdge)
	p.addedIn = make(map[int][]*Task)
	p.seqNextOv = make(map[int]*Task)
	p.seqPrevOv = make(map[int]*Task)
	p.headOv = make(map[ThreadID]*Task)
	p.tailOv = make(map[ThreadID]*Task)
}

// Base returns the baseline graph the patch views.
func (p *Patch) Base() *Graph { return p.base }

// Structural reports whether the patch carries structural deltas (task
// or edge additions/removals). A non-structural patch simulates on the
// timing fast path: no structural compile and no child-list overrides.
func (p *Patch) Structural() bool { return len(p.ops) > 0 }

// Reset drops every delta and rebinds the patch to the given baseline
// (which may be the current one), retaining all allocated storage — the
// sweep worker pool relies on this to keep per-scenario evaluation
// nearly allocation-free. Rebinding reads the baseline's current
// compiled form.
func (p *Patch) Reset(g *Graph) {
	var f *baseForm
	if g != nil {
		f = g.form.Load()
	}
	if f == nil || f != p.form {
		// New baseline, or one whose form was dropped or not built yet.
		p.dense = false
	} else if p.dense {
		// Same form: stay dense, re-materialize by memcpy.
		copy(p.dur, f.dur)
		copy(p.gap, f.gap)
		copy(p.prio, f.prio)
	}
	p.base, p.form = g, f
	p.prioEdited, p.zeroed = false, false
	p.gen++
	clear(p.sparse)
	p.added = p.added[:0]
	p.ops = p.ops[:0]
	p.addedEdgeCount = 0
	p.mat = nil
	clear(p.removed)
	clear(p.removedEdges)
	clear(p.addedOut)
	clear(p.addedIn)
	clear(p.seqNextOv)
	clear(p.seqPrevOv)
	clear(p.headOv)
	clear(p.tailOv)
}

// baseSpan returns the baseline's ID span (appendix IDs start here).
func (p *Patch) baseSpan() int { return len(p.base.tasks) }

// IDSpan returns the exclusive upper bound of effective task IDs:
// baseline span plus appendix length. SimResult.Start has this length.
func (p *Patch) IDSpan() int { return p.baseSpan() + len(p.added) }

// NumTasks returns the number of live tasks in the effective view.
func (p *Patch) NumTasks() int { return p.base.live + len(p.added) - len(p.removed) }

// isAppendix reports whether t is one of the patch's own tasks.
func (p *Patch) isAppendix(t *Task) bool {
	i := t.ID - p.baseSpan()
	return i >= 0 && i < len(p.added) && p.added[i] == t
}

// contains reports whether t is live in the effective view.
func (p *Patch) contains(t *Task) bool {
	if t == nil {
		return false
	}
	if _, gone := p.removed[t.ID]; gone {
		return false
	}
	return p.base.containsTask(t) || p.isAppendix(t)
}

// Task returns the effective task with the given ID, or nil.
func (p *Patch) Task(id int) *Task {
	if _, gone := p.removed[id]; gone {
		return nil
	}
	if i := id - p.baseSpan(); i >= 0 {
		if i < len(p.added) {
			return p.added[i]
		}
		return nil
	}
	return p.base.Task(id)
}

// Tasks returns the effective task set in creation order: live unmasked
// baseline tasks followed by the appendix. The returned slice's backing
// array is reused by the next call; callers must not retain or modify
// it.
func (p *Patch) Tasks() []*Task {
	out := p.tasksView[:0]
	masked := len(p.removed) > 0
	for _, t := range p.base.tasks {
		if t == nil {
			continue
		}
		if masked {
			if _, gone := p.removed[t.ID]; gone {
				continue
			}
		}
		out = append(out, t)
	}
	for _, t := range p.added {
		if masked {
			if _, gone := p.removed[t.ID]; gone {
				continue
			}
		}
		out = append(out, t)
	}
	p.tasksView = out
	return out
}

// supersedes reports whether the baseline's tasks may be skipped by a
// static-order simulation of the compiled form: every baseline task has
// zero effective duration and gap, no structural delta touches a
// baseline task or edge, the baseline is acyclic (so every one of its
// tasks starts at 0 and nothing is blocked), and no appendix task runs
// on one of the first baseThreads thread ordinals (the baseline's).
func (p *Patch) supersedes(threadOf []int32, baseThreads int) bool {
	if !p.zeroed || len(p.removedEdges) > 0 {
		return false
	}
	span := p.baseSpan()
	for id := range p.removed {
		if id < span {
			return false
		}
	}
	for id, edges := range p.addedOut {
		if id < span {
			return false
		}
		for _, e := range edges {
			if e.to.ID < span {
				return false
			}
		}
	}
	for _, t := range p.added {
		if int(threadOf[t.ID]) < baseThreads {
			return false
		}
	}
	return p.base.isAcyclic()
}

// NewTask creates an appendix task with the next effective ID — exactly
// the ID Graph.NewTask would allocate on a clone of the baseline, so
// patch and clone results stay positionally interchangeable. The task
// is not yet placed on a thread; use AppendTask, InsertAfter or
// InsertBefore.
func (p *Patch) NewTask(name string, kind trace.Kind, thread ThreadID, dur time.Duration) *Task {
	t := &Task{
		ID:         p.IDSpan(),
		Name:       name,
		Kind:       kind,
		Thread:     thread,
		Duration:   dur,
		LayerIndex: -1,
	}
	p.ensureStructural()
	p.added = append(p.added, t)
	p.ops = append(p.ops, patchOp{kind: opNewTask, t: t})
	return t
}

// Effective sequence links: override maps shadow the baseline fields;
// appendix tasks have no baseline fields and live in the maps only.

func (p *Patch) effSeqNext(t *Task) *Task {
	if v, ok := p.seqNextOv[t.ID]; ok {
		return v
	}
	if p.isAppendix(t) {
		return nil
	}
	return t.seqNext
}

func (p *Patch) effSeqPrev(t *Task) *Task {
	if v, ok := p.seqPrevOv[t.ID]; ok {
		return v
	}
	if p.isAppendix(t) {
		return nil
	}
	return t.seqPrev
}

func (p *Patch) effTail(tid ThreadID) *Task {
	if v, ok := p.tailOv[tid]; ok {
		return v
	}
	if l := p.base.threads[tid]; l != nil {
		return l.tail
	}
	return nil
}

func (p *Patch) effHead(tid ThreadID) *Task {
	if v, ok := p.headOv[tid]; ok {
		return v
	}
	if l := p.base.threads[tid]; l != nil {
		return l.head
	}
	return nil
}

// requirePlaceable guards the placement primitives: only patch-created
// (appendix) tasks may be placed on a thread. Placing a baseline task
// would mean moving it — which the patch cannot express without
// mutating the shared graph (InsertAfter writes t.Thread).
func (p *Patch) requirePlaceable(who string, t *Task) error {
	if t == nil {
		return fmt.Errorf("core: Patch.%s: nil task", who)
	}
	if !p.isAppendix(t) {
		return fmt.Errorf("core: Patch.%s: task %v is not patch-created; only tasks from Patch.NewTask can be placed (the shared baseline is immutable)", who, t)
	}
	return nil
}

// AppendTask places t — a task created by Patch.NewTask — at the tail
// of its thread's effective sequence, adding the sequence dependency
// from the previous tail: the patch form of Graph.AppendTask. Passing
// a task the patch did not create is a programming error (the shared
// baseline is immutable and its tasks cannot be moved) and panics;
// the Insert forms report the same misuse through their error return.
func (p *Patch) AppendTask(t *Task) {
	if err := p.requirePlaceable("AppendTask", t); err != nil {
		panic(err)
	}
	p.ensureStructural()
	p.ops = append(p.ops, patchOp{kind: opAppendTask, t: t})
	tail := p.effTail(t.Thread)
	if tail != nil {
		p.seqPrevOv[t.ID] = tail
		p.seqNextOv[tail.ID] = t
		p.addEdgeView(tail, t, DepSequence)
	} else {
		p.headOv[t.Thread] = t
	}
	p.tailOv[t.Thread] = t
}

// InsertAfter places t — a task created by Patch.NewTask — on prev's
// thread immediately after prev, splicing the effective sequence chain
// (the paper's Insert primitive).
func (p *Patch) InsertAfter(prev, t *Task) error {
	if prev == nil {
		return fmt.Errorf("core: Patch.InsertAfter: nil anchor")
	}
	if !p.contains(prev) {
		return fmt.Errorf("core: Patch.InsertAfter: anchor %v not in effective view", prev)
	}
	if err := p.requirePlaceable("InsertAfter", t); err != nil {
		return err
	}
	p.ensureStructural()
	p.ops = append(p.ops, patchOp{kind: opInsertAfter, t: t, anchor: prev})
	t.Thread = prev.Thread
	next := p.effSeqNext(prev)
	p.seqPrevOv[t.ID] = prev
	p.seqNextOv[t.ID] = next
	p.seqNextOv[prev.ID] = t
	if next != nil {
		p.seqPrevOv[next.ID] = t
		p.removeEdgeView(prev, next)
		p.addEdgeView(t, next, DepSequence)
	} else {
		p.tailOv[t.Thread] = t
	}
	p.addEdgeView(prev, t, DepSequence)
	return nil
}

// InsertBefore places t — a task created by Patch.NewTask — on next's
// thread immediately before next.
func (p *Patch) InsertBefore(next, t *Task) error {
	if next == nil {
		return fmt.Errorf("core: Patch.InsertBefore: nil anchor")
	}
	if !p.contains(next) {
		return fmt.Errorf("core: Patch.InsertBefore: anchor %v not in effective view", next)
	}
	if err := p.requirePlaceable("InsertBefore", t); err != nil {
		return err
	}
	p.ensureStructural()
	if prev := p.effSeqPrev(next); prev != nil {
		return p.InsertAfter(prev, t)
	}
	p.ops = append(p.ops, patchOp{kind: opInsertBefore, t: t, anchor: next})
	t.Thread = next.Thread
	p.seqNextOv[t.ID] = next
	p.seqPrevOv[t.ID] = nil
	p.seqPrevOv[next.ID] = t
	p.headOv[t.Thread] = t
	p.addEdgeView(t, next, DepSequence)
	return nil
}

// AddDependency adds an effective edge from → to of the given kind,
// with Graph.AddDependency's semantics: duplicate edges are ignored
// (the first kind wins), self-edges and nil tasks are rejected. Both
// endpoints must be live in the effective view — an edge touching a
// removed (or foreign) task is rejected, exactly as the materialized
// replay would fail it, so the composite view can never disagree with
// the clone path about a dangling edge.
func (p *Patch) AddDependency(from, to *Task, kind DepKind) error {
	if from == nil || to == nil {
		return fmt.Errorf("core: Patch.AddDependency: nil task")
	}
	if from == to {
		return fmt.Errorf("core: Patch.AddDependency: self edge on %v", from)
	}
	if !p.contains(from) {
		return fmt.Errorf("core: Patch.AddDependency: task %v not in effective view", from)
	}
	if !p.contains(to) {
		return fmt.Errorf("core: Patch.AddDependency: task %v not in effective view", to)
	}
	p.ensureStructural()
	if !p.addEdgeView(from, to, kind) {
		return nil // duplicate, like Graph.AddDependency
	}
	p.ops = append(p.ops, patchOp{kind: opAddDep, anchor: from, t: to, dep: kind})
	return nil
}

// RemoveDependency removes the effective edge from → to, whether it
// came from the baseline or the patch. It reports whether an edge was
// removed.
func (p *Patch) RemoveDependency(from, to *Task) bool {
	if from == nil || to == nil {
		return false
	}
	p.ensureStructural()
	if !p.removeEdgeView(from, to) {
		return false
	}
	p.ops = append(p.ops, patchOp{kind: opRemoveDep, anchor: from, t: to})
	return true
}

// effHasEdge reports whether the effective edge a → b exists.
func (p *Patch) effHasEdge(a, b *Task) bool {
	for _, e := range p.addedOut[a.ID] {
		if e.to == b {
			return true
		}
	}
	if p.base.containsTask(a) && p.base.containsTask(b) && hasEdge(a, b) {
		_, gone := p.removedEdges[[2]int{a.ID, b.ID}]
		return !gone
	}
	return false
}

// addEdgeView records the effective edge a → b, deduplicating against
// both the baseline and earlier patch edges. It reports whether an edge
// was added. Internal callers (sequence splices, Remove reconnection)
// do not journal the edge: the materialized replay reproduces it
// through the journaled primitive.
func (p *Patch) addEdgeView(a, b *Task, kind DepKind) bool {
	if p.effHasEdge(a, b) {
		return false
	}
	p.addedOut[a.ID] = append(p.addedOut[a.ID], patchEdge{to: b, kind: kind})
	p.addedIn[b.ID] = append(p.addedIn[b.ID], a)
	p.addedEdgeCount++
	return true
}

// removeEdgeView removes the effective edge a → b: a patch-added edge
// is dropped from the delta, a baseline edge is masked. It reports
// whether an edge was removed.
func (p *Patch) removeEdgeView(a, b *Task) bool {
	if list, ok := p.addedOut[a.ID]; ok {
		for i, e := range list {
			if e.to == b {
				p.addedOut[a.ID] = append(list[:i], list[i+1:]...)
				if ins := p.addedIn[b.ID]; len(ins) > 0 {
					for j, q := range ins {
						if q == a {
							p.addedIn[b.ID] = append(ins[:j], ins[j+1:]...)
							break
						}
					}
				}
				p.addedEdgeCount--
				return true
			}
		}
	}
	if p.base.containsTask(a) && p.base.containsTask(b) && hasEdge(a, b) {
		key := [2]int{a.ID, b.ID}
		if _, gone := p.removedEdges[key]; !gone {
			p.removedEdges[key] = struct{}{}
			return true
		}
	}
	return false
}

// edgeLive reports whether the baseline edge from → to survives the
// patch's edge-removal mask (the endpoints' own liveness is checked by
// the caller).
func (p *Patch) edgeLive(from, to int) bool {
	_, gone := p.removedEdges[[2]int{from, to}]
	return !gone
}

// effParents returns t's live effective dependency parents (fresh
// slice): unmasked baseline parents in baseline order, then patch-added
// in-edges in addition order — the exact parent order the materialized
// graph would carry, so order-sensitive consumers (the critical-path
// walk, RemoveTask's reconnection) behave identically on both.
func (p *Patch) effParents(t *Task) []*Task {
	var out []*Task
	if !p.isAppendix(t) {
		for _, q := range t.parents {
			if _, gone := p.removed[q.ID]; gone {
				continue
			}
			if p.edgeLive(q.ID, t.ID) {
				out = append(out, q)
			}
		}
	}
	for _, q := range p.addedIn[t.ID] {
		if _, gone := p.removed[q.ID]; gone {
			continue
		}
		out = append(out, q)
	}
	return out
}

// effChildren returns t's live effective dependents (fresh slice).
func (p *Patch) effChildren(t *Task) []*Task { return p.appendChildren(nil, t) }

// appendChildren appends t's live effective dependents to dst: unmasked
// baseline children in baseline order, then patch-added out-edges in
// addition order — the child order of the materialized graph.
func (p *Patch) appendChildren(dst []*Task, t *Task) []*Task {
	if !p.isAppendix(t) {
		for _, c := range t.children {
			if _, gone := p.removed[c.ID]; gone {
				continue
			}
			if p.edgeLive(t.ID, c.ID) {
				dst = append(dst, c)
			}
		}
	}
	for _, e := range p.addedOut[t.ID] {
		if _, gone := p.removed[e.to.ID]; gone {
			continue
		}
		dst = append(dst, e.to)
	}
	return dst
}

// RemoveTask deletes a task from the effective view (the paper's Remove
// primitive), reproducing Graph.Remove's semantics exactly: the
// effective thread sequence is spliced around it, and every
// non-sequence ordering constraint through the task is preserved by
// reconnecting its remaining maximal parents to its remaining minimal
// children (the same bipartite core Graph.Remove materializes).
func (p *Patch) RemoveTask(t *Task) {
	if !p.contains(t) {
		return
	}
	p.ensureStructural()
	p.ops = append(p.ops, patchOp{kind: opRemoveTask, t: t})
	// Splice the effective thread sequence.
	prev, next := p.effSeqPrev(t), p.effSeqNext(t)
	if prev != nil {
		p.seqNextOv[prev.ID] = next
	} else {
		p.headOv[t.Thread] = next
	}
	if next != nil {
		p.seqPrevOv[next.ID] = prev
	} else {
		p.tailOv[t.Thread] = prev
	}
	// Snapshot effective edges, then unlink them.
	parents := p.effParents(t)
	children := p.effChildren(t)
	for _, q := range parents {
		p.removeEdgeView(q, t)
	}
	for _, c := range children {
		p.removeEdgeView(t, c)
	}
	// Restore the sequence chain.
	if prev != nil && next != nil {
		p.addEdgeView(prev, next, DepSequence)
	}
	// Reconnect maximal parents to minimal children, as Graph.Remove
	// does (ordering among siblings implies the rest).
	maxParents := parents
	if len(parents) > 1 {
		maxParents = make([]*Task, 0, len(parents))
		for _, a := range parents {
			implied := false
			for _, q := range parents {
				if q != a && p.effHasEdge(a, q) {
					implied = true
					break
				}
			}
			if !implied {
				maxParents = append(maxParents, a)
			}
		}
	}
	minChildren := children
	if len(children) > 1 {
		minChildren = make([]*Task, 0, len(children))
		for _, c := range children {
			implied := false
			for _, d := range children {
				if d != c && p.effHasEdge(d, c) {
					implied = true
					break
				}
			}
			if !implied {
				minChildren = append(minChildren, c)
			}
		}
	}
	for _, a := range maxParents {
		for _, c := range minChildren {
			if a == c {
				continue
			}
			if a == prev && c == next {
				continue // already restored as sequence
			}
			p.addEdgeView(a, c, DepCustom)
		}
	}
	p.removed[t.ID] = struct{}{}
}

// Simulate executes Algorithm 1 over the composite view. Baseline tasks
// read their timings through the patch's timing tier, appendix tasks
// execute with their own fields, masked tasks and edges are skipped,
// and patch-added edges contribute to reference counts and relaxation
// exactly as real edges would. The baseline is only read; the returned
// result carries the effective timings, so SimResult.Finish,
// TaskDuration and CriticalPathView see the patched values. Results
// are bit-identical to materializing the patch into a private clone and
// simulating that.
//
// A patch with no structural deltas compiles only its timing arrays
// over the baseline's structure, the fast path of timing-only
// scenarios. Custom Schedulers run directly over the composite view
// too, reading effective timings and priorities through their
// SchedContext, so vDNN-style scheduling policies on a structural patch
// are just as clone-free as the default policy.
func (p *Patch) Simulate(opts ...SimOption) (*SimResult, error) {
	so, err := newSimOptions(opts, &p.scratch)
	if err != nil {
		return nil, err
	}
	if p.base == nil {
		return nil, fmt.Errorf("core: Patch.Simulate: patch has no baseline graph")
	}
	return p.compile(&so).simulate(&so)
}

// compile compiles the patched baseline: the baseline's structure and
// its form's thread layout read in place, with effective timings (and
// priorities, when edited) in per-ID arrays sized for the effective ID
// span. A structural patch then extends that form: the appendix joins
// the task table, timings and thread layout, removed IDs leave the
// table, and every task whose out-edges the patch changed (removed,
// edge-masked or edge-adding sources) gets an override child list in
// one shared buffer.
func (p *Patch) compile(so *simOptions) *simForm {
	n, span := p.IDSpan(), p.baseSpan()
	base := p.snapshot()
	dur, gap := so.timings(n)
	p.fillTiming(base, dur, gap)
	s := so.scratch
	f := &s.form
	*f = simForm{view: p, tasks: p.base.tasks, live: p.base.live, dur: dur, gap: gap, threadOf: base.threadOf, threadIDs: base.threadIDs}
	if p.prioEdited {
		s.prio = resize(s.prio, n)
		p.fillPriority(base, s.prio)
		f.prio = s.prio
	}
	if !p.Structural() {
		return f
	}
	f.live = p.NumTasks()
	s.tasks = append(append(s.tasks[:0], f.tasks...), p.added...)
	for id := range p.removed {
		s.tasks[id] = nil
	}
	f.tasks = s.tasks
	for i, t := range p.added {
		f.dur[span+i], f.gap[span+i] = t.Duration, t.Gap
		if f.prio != nil {
			f.prio[span+i] = t.Priority
		}
	}
	// The appendix extends a copy of the baseline's memoized layout; a
	// patch with no appendix reads the memo in place.
	baseThreads := len(f.threadIDs)
	if len(p.added) > 0 {
		s.threadOf, s.threadIDs = layoutThreads(append(s.threadOf[:0], f.threadOf...), append(s.threadIDs[:0], f.threadIDs...), p.added)
		f.threadOf, f.threadIDs = s.threadOf, s.threadIDs
	}
	if p.supersedes(f.threadOf, baseThreads) {
		f.skip = skipSpan{ids: span, live: p.base.live, threads: baseThreads}
	}

	s.kids = resize(s.kids, n)
	clear(s.kids)
	s.changed = s.changed[:0]
	if s.kidBuf == nil {
		s.kidBuf = make([]*Task, 0, 64) // non-nil, so empty overrides stay non-nil
	}
	s.kidBuf = s.kidBuf[:0]
	override := func(id int) {
		if s.kids[id] != nil {
			return
		}
		var u *Task
		if id < span {
			u = p.base.tasks[id]
		} else {
			u = p.added[id-span]
		}
		s.changed = append(s.changed, u)
		from := len(s.kidBuf)
		if f.tasks[id] != nil {
			s.kidBuf = p.appendChildren(s.kidBuf, u)
		}
		s.kids[id] = s.kidBuf[from:len(s.kidBuf):len(s.kidBuf)]
	}
	for id := range p.removed {
		override(id)
	}
	for key := range p.removedEdges {
		override(key[0])
	}
	for id := range p.addedOut {
		override(id)
	}
	f.kids, f.changed = s.kids, s.changed
	return f
}

// PredictIteration simulates the patched baseline and returns the
// makespan — the predicted iteration time under the patch's deltas.
func (p *Patch) PredictIteration(opts ...SimOption) (time.Duration, error) {
	res, err := p.Simulate(opts...)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// Materialize returns a private clone of the baseline with the patch's
// timing deltas written into its tasks and the structural journal
// replayed onto it — the graph the equivalent clone-path scenario would
// have produced. The sweep uses it to honor KeepGraphs' private-graph
// contract for patch scenarios.
//
// The result is memoized: calling Materialize again without an
// intervening edit through the patch (structural primitives, Set*
// timing edits, Reset) returns the same graph instead of paying the
// clone+replay again. Callers that intend to mutate the returned graph
// and keep materializing from the patch should Clone it first; writes
// that bypass the patch (direct field assignments on appendix tasks)
// are not tracked and do not invalidate the memo.
func (p *Patch) Materialize() (*Graph, error) {
	if p.mat != nil && p.matOps == len(p.ops) && p.matGen == p.gen {
		return p.mat, nil
	}
	c := p.base.Clone()
	if err := p.materializeInto(c); err != nil {
		return nil, err
	}
	p.mat, p.matOps, p.matGen = c, len(p.ops), p.gen
	p.matCount++
	return c, nil
}

// Materializations returns how many times the patch actually paid the
// clone+replay cost of Materialize (memo hits are free). Diagnostic;
// the double-materialization regression tests pin it.
func (p *Patch) Materializations() int { return p.matCount }

// Validate checks the effective composite view for the invariants
// Simulate assumes, returning the first violation as a typed error:
// every patch-added edge and sequence override must reference tasks
// live in the view (ErrDanglingEdge), every effective duration and
// duration+gap must be non-negative (ErrNegativeDuration), and the
// effective dependency graph must be acyclic (ErrCycle, via a
// CycleError naming the unorderable tasks). A patch built solely
// through the public primitives cannot dangle — AddDependency and the
// placement primitives reject dead endpoints up front — so the edge
// checks guard against baselines mutated underneath a bound patch, the
// exact corruption a long-lived service sharing baselines across
// requests must detect rather than mis-simulate.
func (p *Patch) Validate() error {
	if p.base == nil {
		return fmt.Errorf("core: Patch.Validate: patch has no baseline graph")
	}
	// Patch-added edges: both endpoints live in the effective view.
	for srcID, edges := range p.addedOut {
		src := p.Task(srcID)
		if src == nil {
			return fmt.Errorf("%w: patch edge from dead task #%d", ErrDanglingEdge, srcID)
		}
		for _, e := range edges {
			if !p.contains(e.to) {
				return fmt.Errorf("%w: patch edge %v → %v targets a task not live in the view", ErrDanglingEdge, src, e.to)
			}
		}
	}
	// Sequence-chain overrides: present links must point at live tasks
	// (nil means end-of-chain and is always fine).
	for id, nxt := range p.seqNextOv {
		if nxt != nil && !p.contains(nxt) {
			return fmt.Errorf("%w: sequence override after #%d points at dead task %v", ErrDanglingEdge, id, nxt)
		}
	}
	for id, prv := range p.seqPrevOv {
		if prv != nil && !p.contains(prv) {
			return fmt.Errorf("%w: sequence override before #%d points at dead task %v", ErrDanglingEdge, id, prv)
		}
	}
	for tid, h := range p.headOv {
		if h != nil && !p.contains(h) {
			return fmt.Errorf("%w: head override of thread %v points at dead task %v", ErrDanglingEdge, tid, h)
		}
	}
	for tid, tl := range p.tailOv {
		if tl != nil && !p.contains(tl) {
			return fmt.Errorf("%w: tail override of thread %v points at dead task %v", ErrDanglingEdge, tid, tl)
		}
	}
	// Effective timings: the simulator's monotonicity arguments assume
	// non-negative durations and non-negative duration+gap.
	tasks := p.Tasks()
	for _, t := range tasks {
		d, gp := p.Duration(t), p.Gap(t)
		if d < 0 {
			return fmt.Errorf("%w: task %v has effective duration %v", ErrNegativeDuration, t, d)
		} else if d+gp < 0 {
			return fmt.Errorf("%w: task %v has effective duration+gap %v", ErrNegativeDuration, t, d+gp)
		}
	}
	// Kahn's algorithm over the effective view for cycle detection.
	ref := make([]int, p.IDSpan())
	var frontier []*Task
	for _, t := range tasks {
		ref[t.ID] = len(p.effParents(t))
		if ref[t.ID] == 0 {
			frontier = append(frontier, t)
		}
	}
	seen := 0
	var kids []*Task
	for len(frontier) > 0 {
		t := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		seen++
		kids = p.appendChildren(kids[:0], t)
		for _, c := range kids {
			ref[c.ID]--
			if ref[c.ID] == 0 {
				frontier = append(frontier, c)
			}
		}
	}
	if seen != len(tasks) {
		var members []*Task
		for _, t := range tasks {
			if ref[t.ID] > 0 {
				members = append(members, t)
			}
		}
		return newCycleError(members)
	}
	return nil
}

// materializeInto applies the patch to target, a clone of the
// baseline: effective timings are written into the live tasks, then the
// structural journal is replayed through the Graph primitives, so the
// result is exactly what editing the clone directly would have built.
func (p *Patch) materializeInto(target *Graph) error {
	baseSpan := p.baseSpan()
	for id, bt := range p.base.tasks {
		if bt == nil {
			continue
		}
		ct := target.tasks[id]
		ct.Duration = p.Duration(bt)
		ct.Gap = p.Gap(bt)
		ct.Priority = p.Priority(bt)
	}
	var appendix map[*Task]*Task
	if len(p.added) > 0 {
		appendix = make(map[*Task]*Task, len(p.added))
	}
	mapT := func(t *Task) *Task {
		if t == nil {
			return nil
		}
		if t.ID < baseSpan {
			return target.tasks[t.ID]
		}
		return appendix[t]
	}
	for _, op := range p.ops {
		switch op.kind {
		case opNewTask:
			nt := target.NewTask(op.t.Name, op.t.Kind, op.t.Thread, op.t.Duration)
			nt.Gap = op.t.Gap
			nt.TracedStart = op.t.TracedStart
			nt.TracedDuration = op.t.TracedDuration
			nt.Layer, nt.LayerIndex, nt.Phase, nt.HasLayer, nt.Tag = op.t.Layer, op.t.LayerIndex, op.t.Phase, op.t.HasLayer, op.t.Tag
			nt.Correlation = op.t.Correlation
			nt.Bytes = op.t.Bytes
			nt.Dir = op.t.Dir
			nt.Priority = op.t.Priority
			nt.Round = op.t.Round
			appendix[op.t] = nt
		case opAppendTask:
			target.AppendTask(mapT(op.t))
		case opInsertAfter:
			if err := target.InsertAfter(mapT(op.anchor), mapT(op.t)); err != nil {
				return err
			}
		case opInsertBefore:
			if err := target.InsertBefore(mapT(op.anchor), mapT(op.t)); err != nil {
				return err
			}
		case opAddDep:
			if err := target.AddDependency(mapT(op.anchor), mapT(op.t), op.dep); err != nil {
				return err
			}
		case opRemoveDep:
			target.RemoveDependency(mapT(op.anchor), mapT(op.t))
		case opRemoveTask:
			target.Remove(mapT(op.t))
		}
	}
	return nil
}
