package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"daydream/internal/trace"
)

// Graph is the kernel-granularity dependency graph. Tasks live on
// execution threads (CPU threads, GPU streams, communication channels);
// edges carry one of the paper's five dependency kinds.
//
// Storage is dense: task IDs are indices into a slice (a removed task
// leaves a nil hole), and adjacency lives on the tasks themselves as
// parallel children/childKinds slices. This makes Clone a near-memcpy
// and Simulate array-indexed — the properties the concurrent what-if
// sweep subsystem (internal/sweep) builds on.
//
// Build, Repeat and Clone lay a graph out as an arena: one []Task
// backing every task, and three shared buffers holding every task's
// children, child kinds and parents as capacity-clipped windows. Later
// edits (NewTask, Insert*, Remove, AddDependency) work per task: a task
// whose adjacency grows reallocates its own slice and leaves its
// neighbours' windows alone.
type Graph struct {
	// Meta carries workload metadata copied from the source trace,
	// needed by what-if transformations (gradient sizes, bucketing).
	Meta Metadata

	tasks   []*Task // indexed by Task.ID; nil = removed
	live    int     // number of non-nil tasks
	edges   int     // number of dependency edges
	threads map[ThreadID]*seqList

	// layerIdx memoizes the layer/phase index (see index.go). Clone
	// deliberately leaves the copy's memo empty: the index holds task
	// pointers into the graph it was built from.
	layerIdx layerIdxMemo

	// memAnnot memoizes the opaque memory-annotation snapshot
	// internal/mem attaches through SetMemAnnotation (see memhook.go).
	// Clone leaves the copy's memo empty; structural mutations and
	// MapLayers invalidate it alongside the layer/phase index.
	memAnnot memAnnotMemo

	// acyclic memoizes whether the edge set orders every task (see
	// isAcyclic): 0 unknown, 1 acyclic, 2 cyclic. Edge edits reset it.
	acyclic atomic.Int32
}

// Metadata is the non-timeline information a what-if analysis needs.
type Metadata struct {
	// Model, Device, Framework, Precision describe the profiled run.
	Model     string
	Device    string
	Framework string
	Precision string
	// BatchSize is the per-worker batch size.
	BatchSize int
	// IterationTime is the traced iteration time (for reference).
	IterationTime time.Duration
	// Gradients is the per-layer gradient metadata.
	Gradients []trace.GradientInfo
}

type seqList struct {
	head, tail *Task
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{threads: make(map[ThreadID]*seqList)}
}

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return g.live }

// NumEdges returns the number of dependency edges.
func (g *Graph) NumEdges() int { return g.edges }

// IDSpan returns the exclusive upper bound of task IDs ever allocated,
// including removed ones. SimResult.Start has this length.
func (g *Graph) IDSpan() int { return len(g.tasks) }

// Task returns the task with the given ID, or nil.
func (g *Graph) Task(id int) *Task {
	if id < 0 || id >= len(g.tasks) {
		return nil
	}
	return g.tasks[id]
}

// contains reports whether t is a live member of this graph.
func (g *Graph) containsTask(t *Task) bool {
	return t != nil && t.ID >= 0 && t.ID < len(g.tasks) && g.tasks[t.ID] == t
}

// Tasks returns all tasks in creation order. The returned slice is fresh.
func (g *Graph) Tasks() []*Task {
	out := make([]*Task, 0, g.live)
	for _, t := range g.tasks {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Threads returns the thread IDs present in the graph, sorted for
// determinism.
func (g *Graph) Threads() []ThreadID {
	out := make([]ThreadID, 0, len(g.threads))
	for tid := range g.threads {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Num != b.Num {
			return a.Num < b.Num
		}
		return a.Name < b.Name
	})
	return out
}

// ThreadTasks returns the thread's tasks in sequence order.
func (g *Graph) ThreadTasks(tid ThreadID) []*Task {
	var out []*Task
	if l := g.threads[tid]; l != nil {
		for t := l.head; t != nil; t = t.seqNext {
			out = append(out, t)
		}
	}
	return out
}

// NewTask creates a task with a fresh ID. The task is not yet placed on a
// thread; use AppendTask, InsertAfter or InsertBefore.
func (g *Graph) NewTask(name string, kind trace.Kind, thread ThreadID, dur time.Duration) *Task {
	t := &Task{
		ID:         len(g.tasks),
		Name:       name,
		Kind:       kind,
		Thread:     thread,
		Duration:   dur,
		LayerIndex: -1,
	}
	g.tasks = append(g.tasks, t)
	g.live++
	g.InvalidateLayerPhaseIndex()
	return t
}

// seq returns (allocating if needed) the sequence list for a thread.
func (g *Graph) seq(tid ThreadID) *seqList {
	l := g.threads[tid]
	if l == nil {
		l = &seqList{}
		g.threads[tid] = l
	}
	return l
}

// AppendTask places t at the tail of its thread's sequence, adding the
// sequence dependency from the previous tail.
func (g *Graph) AppendTask(t *Task) {
	l := g.seq(t.Thread)
	if l.tail != nil {
		t.seqPrev = l.tail
		l.tail.seqNext = t
		g.addEdge(l.tail, t, DepSequence)
	} else {
		l.head = t
	}
	l.tail = t
}

// InsertAfter places t on prev's thread immediately after prev, splicing
// the sequence dependency chain (the paper's Insert primitive, Figure 4).
func (g *Graph) InsertAfter(prev, t *Task) error {
	if prev == nil {
		return fmt.Errorf("core: InsertAfter: nil anchor")
	}
	if !g.containsTask(prev) {
		return fmt.Errorf("core: InsertAfter: anchor %v not in graph", prev)
	}
	t.Thread = prev.Thread
	next := prev.seqNext
	t.seqPrev = prev
	t.seqNext = next
	prev.seqNext = t
	if next != nil {
		next.seqPrev = t
		g.removeEdge(prev, next)
		g.addEdge(t, next, DepSequence)
	} else {
		g.seq(t.Thread).tail = t
	}
	g.addEdge(prev, t, DepSequence)
	return nil
}

// InsertBefore places t on next's thread immediately before next.
func (g *Graph) InsertBefore(next, t *Task) error {
	if next == nil {
		return fmt.Errorf("core: InsertBefore: nil anchor")
	}
	if prev := next.seqPrev; prev != nil {
		return g.InsertAfter(prev, t)
	}
	// Insert at head.
	t.Thread = next.Thread
	l := g.seq(t.Thread)
	t.seqNext = next
	next.seqPrev = t
	l.head = t
	g.addEdge(t, next, DepSequence)
	return nil
}

// AddDependency adds an edge from → to of the given kind. Duplicate edges
// are ignored (the first kind wins). Self-edges are rejected.
func (g *Graph) AddDependency(from, to *Task, kind DepKind) error {
	if from == nil || to == nil {
		return fmt.Errorf("core: AddDependency: nil task")
	}
	if from == to {
		return fmt.Errorf("core: AddDependency: self edge on %v", from)
	}
	g.addEdge(from, to, kind)
	return nil
}

// RemoveDependency removes the edge from → to if present, reporting
// whether an edge was removed — the inverse of AddDependency, and the
// Graph form of Patch.RemoveDependency.
func (g *Graph) RemoveDependency(from, to *Task) bool {
	if from == nil || to == nil || !hasEdge(from, to) {
		return false
	}
	g.removeEdge(from, to)
	return true
}

// hasEdge reports whether the edge from → to exists, scanning whichever
// endpoint has the smaller adjacency list.
func hasEdge(from, to *Task) bool {
	if len(from.children) <= len(to.parents) {
		for _, c := range from.children {
			if c == to {
				return true
			}
		}
		return false
	}
	for _, p := range to.parents {
		if p == from {
			return true
		}
	}
	return false
}

func (g *Graph) addEdge(from, to *Task, kind DepKind) {
	if hasEdge(from, to) {
		return
	}
	from.children = append(from.children, to)
	from.childKinds = append(from.childKinds, kind)
	to.parents = append(to.parents, from)
	g.edges++
	g.acyclic.Store(0)
}

func (g *Graph) removeEdge(from, to *Task) {
	for i, c := range from.children {
		if c == to {
			from.children = append(from.children[:i], from.children[i+1:]...)
			from.childKinds = append(from.childKinds[:i], from.childKinds[i+1:]...)
			to.parents = removeTask(to.parents, from)
			g.edges--
			g.acyclic.Store(0)
			return
		}
	}
}

// EdgeKind returns the kind of the edge from → to, if present.
func (g *Graph) EdgeKind(from, to *Task) (DepKind, bool) {
	for i, c := range from.children {
		if c == to {
			return from.childKinds[i], true
		}
	}
	return 0, false
}

func removeTask(s []*Task, t *Task) []*Task {
	for i, x := range s {
		if x == t {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Correlate records launch ↔ kernel correlation between an API task and a
// GPU task: peers are linked and a correlation edge is added.
func (g *Graph) Correlate(api, gpu *Task) error {
	if err := g.AddDependency(api, gpu, DepCorrelation); err != nil {
		return err
	}
	api.peer = gpu
	gpu.peer = api
	return nil
}

// Remove deletes a task (the paper's Remove primitive): the thread
// sequence is spliced around it, and every non-sequence ordering
// constraint through the task is preserved by reconnecting its remaining
// parents to its remaining children.
//
// To avoid the O(parents×children) DepCustom edge blow-up of a naive
// reconnection, only the bipartite core is materialized: a parent already
// ordered before another parent, or a child already ordered after another
// child, is skipped — the ordering it needs is implied by the edges the
// remaining maximal parents and minimal children receive.
func (g *Graph) Remove(t *Task) {
	if !g.containsTask(t) {
		return
	}
	// Splice the thread sequence.
	prev, next := t.seqPrev, t.seqNext
	l := g.seq(t.Thread)
	if prev != nil {
		prev.seqNext = next
	} else {
		l.head = next
	}
	if next != nil {
		next.seqPrev = prev
	} else {
		l.tail = prev
	}
	// Snapshot edges before unlinking.
	parents := append([]*Task(nil), t.parents...)
	children := append([]*Task(nil), t.children...)
	for _, p := range parents {
		g.removeEdge(p, t)
	}
	for _, c := range children {
		g.removeEdge(t, c)
	}
	// Restore the sequence chain.
	if prev != nil && next != nil {
		g.addEdge(prev, next, DepSequence)
	}
	// Preserve transitive ordering through the removed task: connect the
	// maximal parents (not ordered before a sibling parent) to the
	// minimal children (not ordered after a sibling child). Every other
	// parent/child pair is reachable through these edges plus the edges
	// already present among the siblings.
	maxParents := parents
	if len(parents) > 1 {
		maxParents = make([]*Task, 0, len(parents))
		for _, p := range parents {
			implied := false
			for _, q := range parents {
				if q != p && hasEdge(p, q) {
					implied = true
					break
				}
			}
			if !implied {
				maxParents = append(maxParents, p)
			}
		}
	}
	minChildren := children
	if len(children) > 1 {
		minChildren = make([]*Task, 0, len(children))
		for _, c := range children {
			implied := false
			for _, d := range children {
				if d != c && hasEdge(d, c) {
					implied = true
					break
				}
			}
			if !implied {
				minChildren = append(minChildren, c)
			}
		}
	}
	for _, p := range maxParents {
		for _, c := range minChildren {
			if p == c {
				continue
			}
			if p == prev && c == next {
				continue // already restored as sequence
			}
			g.addEdge(p, c, DepCustom)
		}
	}
	if t.peer != nil && t.peer.peer == t {
		t.peer.peer = nil
	}
	g.tasks[t.ID] = nil
	g.live--
	g.InvalidateLayerPhaseIndex()
}

// Select returns the tasks matching the predicate, in creation order
// (the paper's Select primitive).
func (g *Graph) Select(pred func(*Task) bool) []*Task {
	var out []*Task
	for _, t := range g.tasks {
		if t != nil && pred(t) {
			out = append(out, t)
		}
	}
	return out
}

// Validate checks structural invariants: sequence-chain consistency and
// acyclicity. It returns the first violation.
func (g *Graph) Validate() error {
	for tid, l := range g.threads {
		var prev *Task
		for t := l.head; t != nil; t = t.seqNext {
			if t.Thread != tid {
				return fmt.Errorf("core: task %v chained on thread %v", t, tid)
			}
			if t.seqPrev != prev {
				return fmt.Errorf("core: broken sequence links at %v", t)
			}
			prev = t
		}
		if l.tail != prev {
			return fmt.Errorf("core: thread %v tail mismatch", tid)
		}
	}
	ref, seen := g.kahn()
	if seen != g.live {
		var members []*Task
		for _, t := range g.tasks {
			if t != nil && ref[t.ID] > 0 {
				members = append(members, t)
			}
		}
		return newCycleError(members)
	}
	return nil
}

// kahn runs Kahn's algorithm over the edge set. It returns the reference
// counts left over, which are positive exactly on the tasks a cycle
// blocks, and how many tasks it ordered.
func (g *Graph) kahn() (ref []int, seen int) {
	ref = make([]int, len(g.tasks))
	var frontier []*Task
	for _, t := range g.tasks {
		if t == nil {
			continue
		}
		ref[t.ID] = len(t.parents)
		if len(t.parents) == 0 {
			frontier = append(frontier, t)
		}
	}
	for len(frontier) > 0 {
		t := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		seen++
		for _, c := range t.children {
			ref[c.ID]--
			if ref[c.ID] == 0 {
				frontier = append(frontier, c)
			}
		}
	}
	memo := int32(2)
	if seen == g.live {
		memo = 1
	}
	g.acyclic.Store(memo)
	return ref, seen
}

// isAcyclic reports whether the edge set orders every task. The answer
// is memoized until the next edge edit, and any number of goroutines
// sharing an unmutated graph may ask concurrently.
func (g *Graph) isAcyclic() bool {
	if v := g.acyclic.Load(); v != 0 {
		return v == 1
	}
	_, seen := g.kahn()
	return seen == g.live
}

// Clone returns a deep copy of the graph; transformations on the copy do
// not affect the original. Task IDs are preserved.
//
// The copy allocates one contiguous task arena plus three shared
// adjacency arrays sized by the edge count, so cloning is a handful of
// allocations and mostly memcpy regardless of graph size. Each task's
// adjacency slices are capacity-clipped into the shared arrays, so a
// later append on the clone copies out instead of corrupting a sibling.
// Clone does not mutate the receiver and is safe to call concurrently
// from multiple goroutines as long as nothing mutates the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Meta:    g.Meta,
		live:    g.live,
		edges:   g.edges,
		threads: make(map[ThreadID]*seqList, len(g.threads)),
	}
	c.Meta.Gradients = append([]trace.GradientInfo(nil), g.Meta.Gradients...)
	arena := make([]Task, len(g.tasks))
	c.tasks = make([]*Task, len(g.tasks))
	parentsBuf := make([]*Task, 0, g.edges)
	childrenBuf := make([]*Task, 0, g.edges)
	kindsBuf := make([]DepKind, 0, g.edges)
	remap := func(t *Task) *Task {
		if t == nil {
			return nil
		}
		return &arena[t.ID]
	}
	for id, t := range g.tasks {
		if t == nil {
			continue
		}
		nt := &arena[id]
		*nt = *t
		nt.seqPrev = remap(t.seqPrev)
		nt.seqNext = remap(t.seqNext)
		nt.peer = remap(t.peer)
		lo := len(parentsBuf)
		for _, p := range t.parents {
			parentsBuf = append(parentsBuf, remap(p))
		}
		nt.parents = parentsBuf[lo:len(parentsBuf):len(parentsBuf)]
		lo = len(childrenBuf)
		for _, ch := range t.children {
			childrenBuf = append(childrenBuf, remap(ch))
		}
		nt.children = childrenBuf[lo:len(childrenBuf):len(childrenBuf)]
		lo = len(kindsBuf)
		kindsBuf = append(kindsBuf, t.childKinds...)
		nt.childKinds = kindsBuf[lo:len(kindsBuf):len(kindsBuf)]
		c.tasks[id] = nt
	}
	for tid, l := range g.threads {
		c.threads[tid] = &seqList{head: remap(l.head), tail: remap(l.tail)}
	}
	return c
}
