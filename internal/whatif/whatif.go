// Package whatif implements the paper's optimization models (§5 and the
// appendix): each model transforms a baseline kernel-level dependency
// graph using only the core package's primitives — Select, Scale, Insert,
// Remove and Schedule overrides — exactly as Algorithms 3–12 describe.
// Every what-if is an Opt* core.Optimization value that records its
// edits on a copy-on-write core.Patch; P3, which models several
// iterations, patches the profile Repeat-expanded by core.OptBaseline.
// Nothing in this package consults the ground-truth engine; prediction
// errors measured by internal/exp are therefore genuine.
package whatif

import (
	"fmt"
	"sort"
	"time"

	"daydream/internal/core"
	"daydream/internal/trace"
)

// Per-layer/per-phase queries (last backward GPU task of a layer,
// first forward task of a round, the earliest weight-update node) ride
// the graph's memoized core.LayerPhaseIndex: one O(tasks) build (shared
// read-only across sweep workers on an immutable baseline) replaces the
// O(layers × tasks) linear scans Algorithms 6 and 7 would otherwise
// pay. Transformations that insert layer-less tasks (communication
// primitives) may keep querying through a held index — the snapshot
// stays correct because inserted tasks never match a layer/phase
// filter.

// gradientsByIndex indexes the graph's gradient metadata by layer index.
func gradientsByIndex(g *core.Graph) map[int]trace.GradientInfo {
	out := make(map[int]trace.GradientInfo, len(g.Meta.Gradients))
	for _, gr := range g.Meta.Gradients {
		out[gr.Index] = gr
	}
	return out
}

// sortedLayerIndices returns the layer indices with gradients, ascending.
func sortedLayerIndices(grads map[int]trace.GradientInfo) []int {
	out := make([]int, 0, len(grads))
	for i := range grads {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// layerSpan returns one past the largest of the ascending layer indices,
// or 0 when there are none.
func layerSpan(sorted []int) int {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)-1] + 1
}

// requireLayers verifies the graph carries a layer mapping, which most
// transformations need: some GPU task is mapped to a layer. It reads the
// graph's memoized layer index and stops at the first mapped task.
func requireLayers(g *core.Graph, who string) error {
	for _, t := range g.LayerPhaseIndex().GPUTasks() {
		if t.HasLayer {
			return nil
		}
	}
	return fmt.Errorf("whatif: %s requires a task-to-layer mapping (call core.MapLayers first)", who)
}

// scaleDuration multiplies a duration by a factor.
func scaleDuration(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
