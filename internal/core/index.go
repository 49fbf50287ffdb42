package core

import (
	"sync"
	"sync/atomic"

	"daydream/internal/trace"
)

// LayerPhaseIndex is a read-only index of a graph's task-to-layer
// mapping: for every (layer, round) it records the backward-phase GPU
// task finishing last and the forward-phase GPU task starting first in
// the traced schedule, plus the earliest weight-update task and cached
// phase-filtered GPU task lists. It replaces the O(layers × tasks)
// scans the what-if models otherwise pay per query (Algorithms 6 and 7
// walk every layer) with a single O(tasks) build.
//
// The index snapshots the graph at build time. Graph mutations that
// allocate or remove tasks, and MapLayers, invalidate the memoized copy
// (the next LayerPhaseIndex call rebuilds); direct writes to a Task's
// Layer/Phase fields do not, so re-map through MapLayers or call
// InvalidateLayerPhaseIndex after hand-editing mappings. Tasks returned
// by the index remain valid as long as they are not removed, so a
// transformation may hold the index across its own insertions — newly
// inserted tasks are simply absent from the snapshot.
type LayerPhaseIndex struct {
	layers int
	rounds int

	// lastBwdGPU and firstFwdGPU are indexed by round*layers+layer;
	// nil where no task matches.
	lastBwdGPU  []*Task
	firstFwdGPU []*Task
	// lastBwdGPUAny is the per-layer result across all rounds.
	lastBwdGPUAny []*Task

	earliestWU *Task
	gpu        []*Task
	gpuCompute []bool
	wuGPU      []*Task

	// nameMatch memoizes GPUTasksMatching scans; nameMatchN bounds it.
	nameMatch  sync.Map
	nameMatchN atomic.Int32
}

// LayerPhaseIndex returns the graph's memoized layer/phase index,
// building it on first use. The memo is published atomically, so any
// number of goroutines sharing an immutable graph (e.g. sweep workers)
// may call it concurrently; concurrent first calls may build
// duplicate-but-identical indexes, of which one wins.
func (g *Graph) LayerPhaseIndex() *LayerPhaseIndex {
	if ix := g.layerIdx.Load(); ix != nil {
		return ix
	}
	ix := buildLayerPhaseIndex(g)
	g.layerIdx.Store(ix)
	return ix
}

// InvalidateLayerPhaseIndex drops the memoized index, forcing a rebuild
// on the next LayerPhaseIndex call. Structural mutations and MapLayers
// call it automatically. The memory-annotation memo is derived from the
// same task/layer snapshot, so it is dropped with the index, and so is
// the compiled baseline views simulate from, which covers the same task
// set.
func (g *Graph) InvalidateLayerPhaseIndex() {
	g.layerIdx.Store(nil)
	g.form.Store(nil)
	g.InvalidateMemAnnotation()
}

// layerIdxMemo is the atomic memo cell embedded in Graph.
type layerIdxMemo struct {
	p atomic.Pointer[LayerPhaseIndex]
}

func (m *layerIdxMemo) Load() *LayerPhaseIndex    { return m.p.Load() }
func (m *layerIdxMemo) Store(ix *LayerPhaseIndex) { m.p.Store(ix) }

// buildLayerPhaseIndex scans the graph once, in task-creation order so
// ties resolve exactly as the original linear scans did.
func buildLayerPhaseIndex(g *Graph) *LayerPhaseIndex {
	ix := &LayerPhaseIndex{}
	for _, t := range g.tasks {
		if t == nil {
			continue
		}
		if t.OnGPU() {
			ix.gpu = append(ix.gpu, t)
			ix.gpuCompute = append(ix.gpuCompute, ComputeIntensivePred(t))
		}
		if !t.HasLayer {
			continue
		}
		if t.LayerIndex >= ix.layers {
			ix.layers = t.LayerIndex + 1
		}
		if t.Round >= ix.rounds {
			ix.rounds = t.Round + 1
		}
	}
	if ix.rounds == 0 {
		ix.rounds = 1
	}
	ix.lastBwdGPU = make([]*Task, ix.rounds*ix.layers)
	ix.firstFwdGPU = make([]*Task, ix.rounds*ix.layers)
	ix.lastBwdGPUAny = make([]*Task, ix.layers)
	for _, t := range g.tasks {
		if t == nil || !t.HasLayer {
			continue
		}
		if t.Phase == trace.WeightUpdate {
			if ix.earliestWU == nil || t.TracedStart < ix.earliestWU.TracedStart {
				ix.earliestWU = t
			}
			if t.OnGPU() {
				ix.wuGPU = append(ix.wuGPU, t)
			}
		}
		if !t.OnGPU() || t.LayerIndex < 0 {
			continue
		}
		slot := t.Round*ix.layers + t.LayerIndex
		switch t.Phase {
		case trace.Backward:
			if cur := ix.lastBwdGPU[slot]; cur == nil || t.TracedStart > cur.TracedStart {
				ix.lastBwdGPU[slot] = t
			}
			if cur := ix.lastBwdGPUAny[t.LayerIndex]; cur == nil || t.TracedStart > cur.TracedStart {
				ix.lastBwdGPUAny[t.LayerIndex] = t
			}
		case trace.Forward:
			if cur := ix.firstFwdGPU[slot]; cur == nil || t.TracedStart < cur.TracedStart {
				ix.firstFwdGPU[slot] = t
			}
		}
	}
	return ix
}

// LastBackwardGPU returns the backward-phase GPU task of the given
// layer index and round that finishes last in the traced schedule, or
// nil.
func (ix *LayerPhaseIndex) LastBackwardGPU(layer, round int) *Task {
	if layer < 0 || layer >= ix.layers || round < 0 || round >= ix.rounds {
		return nil
	}
	return ix.lastBwdGPU[round*ix.layers+layer]
}

// LastBackwardGPUAnyRound is LastBackwardGPU across all rounds.
func (ix *LayerPhaseIndex) LastBackwardGPUAnyRound(layer int) *Task {
	if layer < 0 || layer >= ix.layers {
		return nil
	}
	return ix.lastBwdGPUAny[layer]
}

// FirstForwardGPU returns the forward-phase GPU task of the given layer
// index and round that starts first in the traced schedule, or nil.
func (ix *LayerPhaseIndex) FirstForwardGPU(layer, round int) *Task {
	if layer < 0 || layer >= ix.layers || round < 0 || round >= ix.rounds {
		return nil
	}
	return ix.firstFwdGPU[round*ix.layers+layer]
}

// EarliestWeightUpdate returns the earliest task of the weight-update
// phase (Algorithm 6's "WU ← the earliest node in the weight update
// phase"), or nil.
func (ix *LayerPhaseIndex) EarliestWeightUpdate() *Task { return ix.earliestWU }

// GPUTasks returns every GPU task in creation order. The slice is
// shared: callers must not modify it.
func (ix *LayerPhaseIndex) GPUTasks() []*Task { return ix.gpu }

// nameMatchCap bounds the GPUTasksMatching memo so an adversarial
// stream of distinct substrings (e.g. untrusted what-if requests to a
// long-lived service) cannot grow the index without bound. Past the
// cap, lookups still work — they just rescan.
const nameMatchCap = 512

// GPUTasksMatching returns every GPU task whose name contains sub, in
// creation order, memoizing the result per substring. Repeatedly
// evaluating the same kernel target at different factors — the common
// shape of a COZ-style serving workload — otherwise pays an O(tasks)
// name scan per query that dwarfs the sub-millisecond simulation
// itself. The returned slice is shared: callers must not modify it.
// Safe for concurrent use.
func (ix *LayerPhaseIndex) GPUTasksMatching(sub string) []*Task {
	if v, ok := ix.nameMatch.Load(sub); ok {
		return v.([]*Task)
	}
	match := NameContains(sub)
	var out []*Task
	for _, t := range ix.gpu {
		if match(t) {
			out = append(out, t)
		}
	}
	if ix.nameMatchN.Add(1) <= nameMatchCap {
		ix.nameMatch.Store(sub, out)
	}
	return out
}

// GPUComputeBound returns, parallel to GPUTasks, whether each GPU task
// is compute-intensive under the paper's Algorithm-3 name convention
// (snapshotted at build time — renaming a task does not invalidate the
// memo). The slice is shared: callers must not modify it.
func (ix *LayerPhaseIndex) GPUComputeBound() []bool { return ix.gpuCompute }

// WeightUpdateGPUTasks returns the weight-update-phase GPU tasks in
// creation order. The slice is shared: callers must not modify it.
func (ix *LayerPhaseIndex) WeightUpdateGPUTasks() []*Task { return ix.wuGPU }

// Rounds returns the number of rounds the index covers (1 for a
// non-repeated graph).
func (ix *LayerPhaseIndex) Rounds() int { return ix.rounds }

// Layers returns the exclusive upper bound of mapped layer indices.
func (ix *LayerPhaseIndex) Layers() int { return ix.layers }
