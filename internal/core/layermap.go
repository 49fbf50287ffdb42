package core

import (
	"sort"

	"daydream/internal/trace"
)

// MapLayers performs the paper's synchronization-free task-to-layer
// mapping (§4.3, Figure 3). Each layer span [start, end) recorded by the
// framework instrumentation on a CPU thread claims the CPU tasks whose
// traced start falls inside it; CUDA launch calls propagate the layer to
// the GPU tasks they triggered via CUPTI correlation IDs. No
// synchronization events are consulted, so the mapping never perturbs the
// execution being profiled.
//
// It returns the number of tasks that received a layer.
func MapLayers(g *Graph, spans []trace.LayerSpan) int {
	if len(spans) == 0 {
		return 0
	}
	g.InvalidateLayerPhaseIndex()
	// Group spans per CPU thread, sorted by start.
	perThread := make(map[int][]trace.LayerSpan)
	for _, s := range spans {
		perThread[s.Thread] = append(perThread[s.Thread], s)
	}
	mapped := 0
	for tnum, ss := range perThread {
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		tasks := g.ThreadTasks(CPU(tnum))
		si := 0
		for _, t := range tasks {
			for si < len(ss) && ss[si].End <= t.TracedStart {
				si++
			}
			if si >= len(ss) {
				break
			}
			s := ss[si]
			if t.TracedStart < s.Start {
				continue // between spans: framework glue
			}
			t.Layer, t.LayerIndex, t.Phase, t.HasLayer = s.Layer, s.Index, s.Phase, true
			mapped++
			if gpu := t.peer; gpu != nil && gpu.OnGPU() {
				gpu.Layer, gpu.LayerIndex, gpu.Phase, gpu.HasLayer = s.Layer, s.Index, s.Phase, true
				mapped++
			}
		}
	}
	return mapped
}

// MappedFraction returns the fraction of GPU tasks that carry a layer
// mapping — a quick health metric for instrumentation coverage.
func MappedFraction(g *Graph) float64 {
	total, mapped := 0, 0
	for _, t := range g.tasks {
		if t == nil || !t.OnGPU() {
			continue
		}
		total++
		if t.HasLayer {
			mapped++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(mapped) / float64(total)
}
