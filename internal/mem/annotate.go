package mem

import (
	"fmt"
	"sort"

	"daydream/internal/core"
	"daydream/internal/trace"
)

// Tensor is one tracked allocation: a layer's output activation for one
// round. Tasks are referenced by ID, so the same tensor is meaningful
// over any view or clone sharing the baseline's ID space.
type Tensor struct {
	// Layer and LayerIndex identify the producing layer; Round is the
	// iteration replica (0 for a non-repeated graph).
	Layer      string
	LayerIndex int
	Round      int
	// Bytes is the activation size (dnn layer tensor sizing, via the
	// trace's gradient metadata).
	Bytes int64
	// Producer is the task whose simulated start allocates the tensor:
	// the layer's last forward-phase GPU task for baseline activations;
	// rewriters may repoint it (a vDNN prefetch re-allocates on its own
	// start).
	Producer int
	// Consumers are the tasks that read the tensor — the layer's
	// backward-phase GPU tasks. The tensor frees when the last live
	// consumer finishes; with no live consumers it frees at the
	// producer's finish. Sorted ascending.
	Consumers []int
}

// Annotation is a graph's tensor schedule plus its constant resident
// footprint — the MemAnnotator output attached to the baseline via the
// core.Graph memo hook.
type Annotation struct {
	// Resident is the constant byte load (parameters + gradients,
	// derived from the per-layer gradient sizes) attributed to the
	// device for the whole timeline.
	Resident int64
	// Tensors is the schedule, ordered by (round, layer index).
	Tensors []Tensor
	// span is the baseline's ID span at build time, for mismatch
	// detection in ComputeProfile.
	span int
}

// Annotate builds the annotation by a single scan of the graph: for
// every layer carrying activation metadata it finds, per round, the
// last forward-phase GPU task (producer) and the backward-phase GPU
// tasks (consumers). Layers without activation bytes, and layers whose
// producer or tasks are absent, contribute no tensor.
func Annotate(g *core.Graph) (*Annotation, error) {
	if len(g.Meta.Gradients) == 0 {
		return nil, fmt.Errorf("mem: graph carries no layer metadata (Meta.Gradients is empty); profile with a layer-mapped trace")
	}
	grads := make(map[int]trace.GradientInfo, len(g.Meta.Gradients))
	var resident int64
	for _, gr := range g.Meta.Gradients {
		grads[gr.Index] = gr
		resident += 2 * gr.Bytes // parameters + gradients
	}

	type key struct{ li, round int }
	prod := make(map[key]*core.Task)
	cons := make(map[key][]int)
	for _, t := range g.Tasks() {
		if !t.OnGPU() || !t.HasLayer || t.LayerIndex < 0 {
			continue
		}
		gr, ok := grads[t.LayerIndex]
		if !ok || gr.ActBytes == 0 {
			continue
		}
		k := key{t.LayerIndex, t.Round}
		switch t.Phase {
		case trace.Forward:
			if cur := prod[k]; cur == nil || t.TracedStart > cur.TracedStart {
				prod[k] = t
			}
		case trace.Backward:
			cons[k] = append(cons[k], t.ID)
		}
	}

	keys := make([]key, 0, len(prod))
	for k := range prod {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].round != keys[j].round {
			return keys[i].round < keys[j].round
		}
		return keys[i].li < keys[j].li
	})
	ann := &Annotation{Resident: resident, span: g.IDSpan()}
	for _, k := range keys {
		gr := grads[k.li]
		ids := append([]int(nil), cons[k]...)
		sort.Ints(ids)
		ann.Tensors = append(ann.Tensors, Tensor{
			Layer:      gr.Layer,
			LayerIndex: k.li,
			Round:      k.round,
			Bytes:      gr.ActBytes,
			Producer:   prod[k].ID,
			Consumers:  ids,
		})
	}
	if len(ann.Tensors) == 0 {
		return nil, fmt.Errorf("mem: no layers with activation metadata (every ActBytes is zero); cannot build a memory timeline")
	}
	return ann, nil
}

// AnnotationOf returns the graph's memoized annotation, building and
// attaching it on first use through the core.Graph MemAnnotation hook.
// Safe for concurrent use on an immutable graph; structural mutations
// invalidate the memo and the next call rebuilds.
func AnnotationOf(g *core.Graph) (*Annotation, error) {
	if v := g.MemAnnotation(); v != nil {
		if ann, ok := v.(*Annotation); ok {
			return ann, nil
		}
	}
	ann, err := Annotate(g)
	if err != nil {
		return nil, err
	}
	g.SetMemAnnotation(ann)
	return ann, nil
}
