package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"daydream/internal/trace"
)

// minSyncResidual is the floor on a synchronization task's own duration
// once its waiting time has been converted into dependency edges.
const minSyncResidual = 2 * time.Microsecond

// Build constructs the kernel-granularity dependency graph from a trace,
// adding the paper's five dependency types (§4.2.2):
//
//  1. sequential order of CPU tasks in the same thread,
//  2. sequential order of GPU tasks in the same CUDA stream,
//  3. correlation from CUDA API calls to the GPU activities they launch,
//  4. CUDA synchronization (and blocking device-to-host copies): an edge
//     from the last GPU task enqueued before the call to the call, and
//  5. communication: an edge from the last compute task that precedes a
//     communication primitive (traces of distributed runs only; what-if
//     transformations insert their own communication tasks with precise
//     dependencies).
//
// Synchronization-flavoured CPU tasks keep only the residual duration that
// remains after their traced waiting time is explained by dependency
// edges; otherwise a what-if that shrinks upstream GPU work could never
// shrink the overall runtime.
func Build(tr *trace.Trace) (*Graph, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("core: build: %w", err)
	}

	// Visit the activities in time order through a permutation; the
	// tracer already emits them sorted.
	acts := tr.Activities
	n := len(acts)
	order := make([]int32, n)
	correlated := 0
	var maxCorr uint64
	for i := range order {
		order[i] = int32(i)
		if c := acts[i].Correlation; c != 0 {
			correlated++
			maxCorr = max(maxCorr, c)
		}
	}
	byTime := func(i, j int32) int {
		a, b := &acts[i], &acts[j]
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
	}
	if !slices.IsSortedFunc(order, byTime) {
		slices.SortStableFunc(order, byTime)
	}

	arena := make([]Task, n)
	g := &Graph{
		Meta: Metadata{
			Model:         tr.Model,
			Device:        tr.Device,
			Framework:     tr.Framework,
			Precision:     tr.Precision,
			BatchSize:     tr.BatchSize,
			IterationTime: tr.IterationTime,
			Gradients:     append([]trace.GradientInfo(nil), tr.Gradients...),
		},
		tasks: make([]*Task, n),
		live:  n,
	}

	// Create the tasks in time order and chain each onto its thread
	// (dependency types 1 and 2, and channel order; per-thread order is
	// trace order). Each activity's thread resolves to a dense ordinal
	// once, usually from the last thread of its kind; CPU gaps are
	// computed against the next CPU task on the same thread. Correlated
	// records pair up through a partnerBook: Validate guarantees exactly
	// one API and one GPU record per correlation.
	ords := make(map[ThreadID]int32)
	var threads []buildThread
	threadOrd := make([]int32, n)
	partner := newPartnerBook(maxCorr, n, correlated)
	pairs := 0
	var recent [3]struct { // the last thread resolved, per ThreadKind
		tid ThreadID
		ord int32
	}
	for k := range recent {
		recent[k].ord = -1
	}
	for i, ai := range order {
		a := &acts[ai]
		tid, err := threadOf(a)
		if err != nil {
			return nil, err
		}
		r := &recent[tid.Kind]
		if r.ord < 0 || tid != r.tid {
			o, ok := ords[tid]
			if !ok {
				o = int32(len(threads))
				ords[tid] = o
				threads = append(threads, buildThread{tid: tid, head: int32(i), tail: -1})
			}
			r.tid, r.ord = tid, o
		}
		threadOrd[i] = r.ord
		t := &arena[i]
		t.ID = i
		t.Name = a.Name
		t.Kind = a.Kind
		t.Thread = tid
		t.Duration = a.Duration
		t.TracedStart = a.Start
		t.TracedDuration = a.Duration
		t.LayerIndex = -1
		t.Correlation = a.Correlation
		t.Bytes = a.Bytes
		t.Dir = a.Dir
		g.tasks[i] = t
		th := &threads[r.ord]
		if th.tail >= 0 {
			prev := &arena[th.tail]
			if tid.Kind == CPUThread {
				if gap := t.TracedStart - prev.End(); gap > 0 {
					prev.Gap = gap
				}
			}
			prev.seqNext = t
			t.seqPrev = prev
		}
		th.tail = int32(i)
		if a.Correlation != 0 {
			if j, ok := partner.match(a.Correlation, int32(i)); ok {
				t.peer = &arena[j]
				arena[j].peer = t
				pairs++
			}
		}
	}
	if 2*pairs != correlated {
		for i := range arena {
			if t := &arena[i]; t.Correlation != 0 && t.peer == nil && t.OnCPU() {
				return nil, fmt.Errorf("core: correlation %d has no GPU record", t.Correlation)
			}
		}
	}

	// Count the edges exactly, then record them in the order one
	// addEdge per dependency would have added them: every sequence edge,
	// then every correlation edge, then the synchronization and
	// communication sweep. That order fixes each task's adjacency order.
	// No two recorded edges join the same pair: sequence edges stay on
	// one thread, correlation edges run CPU → GPU and synchronization
	// edges GPU → CPU, and a communication task on its channel has no
	// correlation, so its one sweep edge comes from a GPU stream.
	edges := make([]edge, 0, n-len(threads)+pairs+syncSweep(arena, threadOrd, threads, nil))
	for i := range arena {
		if p := arena[i].seqPrev; p != nil {
			edges = append(edges, edge{from: int32(p.ID), to: int32(i), kind: DepSequence})
		}
	}
	for i := range arena {
		if t := &arena[i]; t.peer != nil && t.OnCPU() {
			edges = append(edges, edge{from: int32(i), to: int32(t.peer.ID), kind: DepCorrelation})
		}
	}
	syncSweep(arena, threadOrd, threads, &edges)
	g.edges = layoutEdges(arena, edges)

	seqs := make([]seqList, len(threads))
	g.threads = make(map[ThreadID]*seqList, len(threads))
	for o, th := range threads {
		seqs[o] = seqList{head: &arena[th.head], tail: &arena[th.tail]}
		g.threads[th.tid] = &seqs[o]
	}
	g.InvalidateLayerPhaseIndex()

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// partnerBook pairs correlated records for Build: the first record of a
// correlation waits in the book for the second. Correlations within
// trace's dense span of the record count (every traced run numbers them
// sequentially) wait in a flat array, others in a map.
type partnerBook struct {
	dense  []int32 // correlation -> waiting record + 1, or 0
	sparse map[uint64]int32
}

func newPartnerBook(maxCorr uint64, records, correlated int) partnerBook {
	if maxCorr < 8*uint64(records)+64 {
		return partnerBook{dense: make([]int32, maxCorr+1)}
	}
	return partnerBook{sparse: make(map[uint64]int32, correlated/2)}
}

// match returns the record waiting on correlation c, or, if none waits,
// leaves record i waiting and reports false.
func (b *partnerBook) match(c uint64, i int32) (int32, bool) {
	if b.dense == nil {
		j, ok := b.sparse[c]
		if !ok {
			b.sparse[c] = i
		}
		return j, ok
	}
	if j := b.dense[c]; j != 0 {
		return j - 1, true
	}
	b.dense[c] = i + 1
	return 0, false
}

// buildThread is Build's per-thread state, indexed by thread ordinal:
// the thread's first and last task, and for a GPU stream the last task
// enqueued on it (-1 while none).
type buildThread struct {
	tid        ThreadID
	head, tail int32
	enq        int32
}

// syncSweep adds dependency types 4 and 5. It sweeps the time-sorted
// tasks tracking, per stream, the most recently enqueued GPU task (a GPU
// task is "enqueued" when its correlated API record appears; uncorrelated
// GPU tasks count at their own start). A blocking call depends on the
// last task enqueued on every stream so far, in the order the streams
// were first enqueued on; a communication task depends on the last GPU
// task enqueued anywhere.
//
// With a nil rec the sweep only counts the edges. Otherwise it appends
// them to *rec and cuts each blocking call down to its residual
// duration. It returns the number of edges.
func syncSweep(arena []Task, threadOrd []int32, threads []buildThread, rec *[]edge) int {
	for o := range threads {
		threads[o].enq = -1
	}
	var streams []int32 // ordinals of enqueued-on streams, first-enqueued order
	enqueue := func(gpu *Task) {
		th := &threads[threadOrd[gpu.ID]]
		if th.enq < 0 {
			streams = append(streams, threadOrd[gpu.ID])
		}
		th.enq = int32(gpu.ID)
	}
	count := 0
	var lastGPU *Task
	for i := range arena {
		t := &arena[i]
		// A blocking call waits for the GPU work enqueued strictly
		// before it, so resolve its edges before registering its own
		// correlated copy.
		if isBlockingCall(t) {
			count += len(streams)
			if rec != nil {
				var waited time.Duration
				for _, o := range streams {
					gpu := &arena[threads[o].enq]
					*rec = append(*rec, edge{from: int32(gpu.ID), to: int32(i), kind: DepSync})
					waited = max(waited, gpu.End())
				}
				t.Duration = syncResidual(t, waited)
			}
		} else if t.Kind == trace.KindComm && lastGPU != nil {
			count++
			if rec != nil {
				*rec = append(*rec, edge{from: int32(lastGPU.ID), to: int32(i), kind: DepComm})
			}
		}
		switch {
		case t.OnCPU() && t.Correlation != 0:
			if gpu := t.peer; gpu != nil {
				enqueue(gpu)
				lastGPU = gpu
			}
		case t.OnGPU() && t.Correlation == 0:
			enqueue(t)
			lastGPU = t
		}
	}
	return count
}

// edge is one dependency edge recorded for layoutEdges: arena indices of
// its endpoints and its kind.
type edge struct {
	from, to int32
	kind     DepKind
}

// layoutEdges installs distinct edges, recorded in insertion order, as
// the arena tasks' adjacency and returns their number. Each task's
// children, childKinds and parents become capacity-clipped windows of
// three shared buffers, in insertion order: the order one addEdge per
// edge gives, and the shape Clone produces, so a later in-place edit
// copies that task's slice out instead of writing into a neighbour's.
func layoutEdges(arena []Task, edges []edge) int {
	n := len(arena)
	// out[i+1] and in[i+1] count task i's children and parents; the
	// prefix sums make out[i] and in[i] the task's first slot, and
	// placement advances them to its end.
	off := make([]int32, 2*(n+1))
	out, in := off[:n+1], off[n+1:]
	for _, e := range edges {
		out[e.from+1]++
		in[e.to+1]++
	}
	for i := 1; i <= n; i++ {
		out[i] += out[i-1]
		in[i] += in[i-1]
	}
	children := make([]*Task, len(edges))
	kinds := make([]DepKind, len(edges))
	parents := make([]*Task, len(edges))
	for _, e := range edges {
		c := out[e.from]
		out[e.from]++
		children[c], kinds[c] = &arena[e.to], e.kind
		p := in[e.to]
		in[e.to]++
		parents[p] = &arena[e.from]
	}
	var clo, plo int32
	for i := range arena {
		t := &arena[i]
		if chi := out[i]; chi > clo {
			t.children = children[clo:chi:chi]
			t.childKinds = kinds[clo:chi:chi]
			clo = chi
		}
		if phi := in[i]; phi > plo {
			t.parents = parents[plo:phi:phi]
			plo = phi
		}
	}
	return len(edges)
}

// threadOf maps an activity to its execution thread.
func threadOf(a *trace.Activity) (ThreadID, error) {
	switch {
	case a.Kind.OnCPU():
		return CPU(a.Thread), nil
	case a.Kind.OnGPU():
		return Stream(a.Stream), nil
	case a.Kind.OnChannel():
		return Channel(a.Channel), nil
	}
	return ThreadID{}, fmt.Errorf("core: activity %d (%s) of kind %s has no execution thread", a.ID, a.Name, a.Kind)
}

// isBlockingCall reports whether a CPU task blocks until previously
// enqueued GPU work completes: CUDA synchronizations and device-to-host
// copies (§4.2.2).
func isBlockingCall(t *Task) bool {
	if !t.OnCPU() {
		return false
	}
	return t.Kind == trace.KindSync || (t.Kind == trace.KindMemcpyAPI && t.Dir == trace.MemcpyD2H)
}

// syncResidual converts a blocking call's traced duration into the
// residual that remains once waiting is explained by edges: the time from
// the waited-for GPU completion (or the call's start, whichever is later)
// to the call's traced end.
func syncResidual(t *Task, waited time.Duration) time.Duration {
	start := t.TracedStart
	if waited > start {
		start = waited
	}
	res := t.End() - start
	if res < minSyncResidual {
		res = minSyncResidual
	}
	return res
}
