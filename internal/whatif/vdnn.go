package whatif

import (
	"fmt"
	"strings"
	"time"

	"daydream/internal/core"
	"daydream/internal/mem"
	"daydream/internal/trace"
)

// VDNNOptions configures the vDNN what-if.
type VDNNOptions struct {
	// PCIeBandwidth is the host↔device copy bandwidth in bytes/s.
	PCIeBandwidth float64
	// PrefetchDistance is how many layers ahead of a layer's backward
	// pass its activations are prefetched: the re-fetch of layer l's
	// feature maps is released once backward reaches layer
	// l+PrefetchDistance (backward visits layers in descending order),
	// which is the role of the original paper's findPrefetchLayer
	// policy. Larger distances hide more PCIe latency but hold more
	// memory.
	PrefetchDistance int
	// OffloadLayer reports whether a layer's activations are offloaded;
	// the default models vDNN_conv (convolutional feature maps only).
	OffloadLayer func(gr trace.GradientInfo) bool
}

func (o *VDNNOptions) defaults() {
	if o.PCIeBandwidth == 0 {
		o.PCIeBandwidth = 12e9
	}
	if o.PrefetchDistance == 0 {
		o.PrefetchDistance = 3
	}
	if o.OffloadLayer == nil {
		o.OffloadLayer = func(gr trace.GradientInfo) bool { return gr.Kind == "conv" }
	}
}

// vdnnCopyChannel is the dedicated PCIe memcpy engine vDNN's offloads
// and prefetches ride (vDNN uses a separate memory stream).
const vdnnCopyChannel = "pcie.copy"

// VDNNPatch models virtualized DNN (Rhu et al.) per the paper's §5.2
// and Algorithm 10: for every offloaded layer, a device-to-host copy of
// its output feature map is inserted after its forward pass (on a
// dedicated copy stream, as vDNN uses a separate memory stream), and a
// host-to-device prefetch is inserted before its backward pass.
// Prefetches are gated on backward progress PrefetchDistance layers
// ahead, modeling the delayed prefetching policy the appendix
// implements with a Schedule override. Simulating the patch exposes
// vDNN's performance overhead: PCIe traffic and late prefetches stall
// the backward pass.
//
// The offload/prefetch tasks and their gating edges are recorded as
// copy-on-write deltas over the patch's shared baseline. The anchor
// scan reads the patch's *effective* view, not the raw baseline, so
// stacking vDNN after another structural optimization (e.g.
// removal-form batchnorm restructuring) gates on tasks that are still
// live. OptVDNN is the first-class value carrying the copy-stream
// scheduling policy alongside the surgery.
func VDNNPatch(p *core.Patch, opts VDNNOptions) error {
	return vdnnInto(p, p, opts)
}

// vdnnInto reads workload metadata from the patch's baseline, scans
// view — the patch's effective task view — once for anchor tasks, and
// records Algorithm 10's insertions on the patch.
func vdnnInto(p *core.Patch, view core.TaskView, opts VDNNOptions) error {
	g := p.Base()
	if err := requireLayers(g, "VDNN"); err != nil {
		return err
	}
	opts.defaults()
	grads := gradientsByIndex(g)
	layers := sortedLayerIndices(grads)
	copyStream := core.Channel(vdnnCopyChannel) // dedicated memcpy engine
	maxIdx := layerSpan(layers) - 1
	anchors := scanLayerAnchors(view, maxIdx+1)
	inserted := 0
	for _, li := range layers {
		gr := grads[li]
		if !opts.OffloadLayer(gr) || gr.ActBytes == 0 {
			continue
		}
		fwdLast := anchors.lastFwd(li)
		bwdFirst := anchors.firstBwd(li)
		if fwdLast == nil || bwdFirst == nil {
			continue
		}
		copyDur := time.Duration(float64(gr.ActBytes) / opts.PCIeBandwidth * float64(time.Second))

		// Copies are not threaded into a fixed channel sequence: the
		// copy engine serves them in simulation order (offloads
		// arrive during forward, prefetches during backward).
		offload := p.NewTask(fmt.Sprintf("vdnn_offload %s", gr.Layer), trace.KindComm, copyStream, copyDur)
		offload.Bytes = gr.ActBytes
		if err := p.AddDependency(fwdLast, offload, core.DepCustom); err != nil {
			return err
		}

		prefetch := p.NewTask(fmt.Sprintf("vdnn_prefetch %s", gr.Layer), trace.KindComm, copyStream, copyDur)
		prefetch.Bytes = gr.ActBytes
		// The prefetch may not begin before the offload completed …
		if err := p.AddDependency(offload, prefetch, core.DepCustom); err != nil {
			return err
		}
		// … nor before backward has progressed close enough (delayed
		// prefetching policy) …
		if trigger := anchors.firstBwd(gateIndex(li, opts.PrefetchDistance, maxIdx)); trigger != nil && trigger != bwdFirst {
			if err := p.AddDependency(trigger, prefetch, core.DepCustom); err != nil {
				return err
			}
		}
		// … and the layer's backward pass needs the prefetched data.
		if err := p.AddDependency(prefetch, bwdFirst, core.DepCustom); err != nil {
			return err
		}
		inserted++
	}
	if inserted == 0 {
		return fmt.Errorf("whatif: VDNN: no offloadable layers with activation metadata")
	}
	return nil
}

// VDNNScheduler is the copy-stream scheduling policy vDNN pairs with
// its graph surgery: among the frontier tasks ready earliest, compute
// and framework work preempts PCIe copy-engine traffic — the memory
// stream yields, so offloads and prefetches fill idle bus time instead
// of delaying kernels dispatched at the same instant. Ties beyond that
// fall to higher effective priority, then lower task ID, keeping the
// policy deterministic. The order is the default one extended by a
// class (copy or not), so the simulator runs it as a
// core.KeyedScheduler on its heap loop; Pick implements the same order
// for runs whose priorities do not fit the packed key. Both read
// everything through the view, so the policy runs clone-free over a
// structural Patch exactly as over a materialized graph.
type VDNNScheduler struct{}

// Class implements core.KeyedScheduler: 1 for a task on vDNN's copy
// channel, 0 for everything else.
func (VDNNScheduler) Class(t *core.Task) int {
	if t.Thread.Kind == core.CommChannel && t.Thread.Name == vdnnCopyChannel {
		return 1
	}
	return 0
}

// Pick implements core.Scheduler.
func (s VDNNScheduler) Pick(frontier []*core.Task, ctx *core.SchedContext) int {
	best := -1
	var bestT time.Duration
	var bestCopy bool
	var bestPrio int
	for i, t := range frontier {
		et := ctx.EffStart(t)
		isCopy := s.Class(t) == 1
		prio := ctx.Priority(t)
		better := false
		switch {
		case best < 0:
			better = true
		case et != bestT:
			better = et < bestT
		case isCopy != bestCopy:
			better = !isCopy
		case prio != bestPrio:
			better = prio > bestPrio
		default:
			better = t.ID < frontier[best].ID
		}
		if better {
			best, bestT, bestCopy, bestPrio = i, et, isCopy, prio
		}
	}
	return best
}

// vdnnOpt is OptVDNN's value: a patch-form structural optimization that
// also carries the scheduling policy half of the what-if.
type vdnnOpt struct{ opts VDNNOptions }

// OptVDNN returns the vDNN what-if (Algorithm 10) as an Optimization
// value: the offload/prefetch insertions apply as clone-free patch
// deltas, and the value carries VDNNScheduler through
// core.SchedulerCarrier, so Compare and sweep scenarios simulate under
// the copy-stream policy automatically — still with zero per-scenario
// clones, since schedulers are view-generic.
func OptVDNN(opts VDNNOptions) core.Optimization { return &vdnnOpt{opts: opts} }

// Name implements core.Optimization.
func (v *vdnnOpt) Name() string { return "vdnn" }

// Footprint implements core.Optimization.
func (v *vdnnOpt) Footprint() core.OptFootprint { return core.Structural }

// Apply implements core.Optimization.
func (v *vdnnOpt) Apply(p *core.Patch) error { return VDNNPatch(p, v.opts) }

// SimScheduler implements core.SchedulerCarrier.
func (v *vdnnOpt) SimScheduler() core.Scheduler { return VDNNScheduler{} }

// RewriteTensors implements mem.MemMeasurer: an offloaded activation is
// device-resident only from its producer until its vdnn_offload copy
// drains to the host, and again from its vdnn_prefetch back — the
// memory half of Algorithm 10 that the latency edits alone never
// expressed. The rewrite finds the optimization's own offload/prefetch
// tasks in the view by the naming convention vdnnInto emits, so it is
// identical over a Patch and over the materialized clone.
func (v *vdnnOpt) RewriteTensors(view core.TaskView, tensors []mem.Tensor) ([]mem.Tensor, error) {
	offload := make(map[string]int)
	prefetch := make(map[string]int)
	for _, t := range view.Tasks() {
		if t.Thread.Kind != core.CommChannel || t.Thread.Name != vdnnCopyChannel {
			continue
		}
		if layer, ok := strings.CutPrefix(t.Name, "vdnn_offload "); ok {
			offload[layer] = t.ID
		} else if layer, ok := strings.CutPrefix(t.Name, "vdnn_prefetch "); ok {
			prefetch[layer] = t.ID
		}
	}
	out := make([]mem.Tensor, 0, len(tensors))
	for _, tn := range tensors {
		off, okOff := offload[tn.Layer]
		pre, okPre := prefetch[tn.Layer]
		if !okOff || !okPre {
			out = append(out, tn)
			continue
		}
		onDevice := tn
		onDevice.Consumers = []int{off}
		refetched := tn
		refetched.Producer = pre
		refetched.Consumers = append([]int(nil), tn.Consumers...)
		out = append(out, onDevice, refetched)
	}
	return out, nil
}

// gateIndex picks the layer whose backward pass releases a prefetch:
// distance layers above li, clamped to the model.
func gateIndex(li, distance, maxIdx int) int {
	g := li + distance
	if g > maxIdx {
		g = maxIdx
	}
	return g
}

// layerAnchors holds, per layer index, the GPU tasks vDNN and Gist
// splice their insertions next to: the layer's last forward GPU task and
// its first backward GPU task, across all rounds, live in the view.
type layerAnchors struct {
	fwdLast, bwdFirst []*core.Task
}

// scanLayerAnchors builds the anchor table for layers [0, layers) in one
// pass over the view. Tasks are visited in creation order and replaced
// only on a strictly later (forward) or earlier (backward) TracedStart,
// so ties go to the first task created. The table stays valid while a
// transformation walks the layers once each: vDNN only adds copy-channel
// tasks, which are not on the GPU, and Gist's encode/decode kernels carry
// the index of the layer being processed.
func scanLayerAnchors(v core.TaskView, layers int) layerAnchors {
	a := layerAnchors{fwdLast: make([]*core.Task, layers), bwdFirst: make([]*core.Task, layers)}
	for _, t := range v.Tasks() {
		if !t.OnGPU() || !t.HasLayer || t.LayerIndex < 0 || t.LayerIndex >= layers {
			continue
		}
		switch t.Phase {
		case trace.Forward:
			if cur := a.fwdLast[t.LayerIndex]; cur == nil || t.TracedStart > cur.TracedStart {
				a.fwdLast[t.LayerIndex] = t
			}
		case trace.Backward:
			if cur := a.bwdFirst[t.LayerIndex]; cur == nil || t.TracedStart < cur.TracedStart {
				a.bwdFirst[t.LayerIndex] = t
			}
		}
	}
	return a
}

// lastFwd returns the layer's last forward GPU task, or nil.
func (a layerAnchors) lastFwd(li int) *core.Task {
	if li < 0 || li >= len(a.fwdLast) {
		return nil
	}
	return a.fwdLast[li]
}

// firstBwd returns the layer's first backward GPU task, or nil.
func (a layerAnchors) firstBwd(li int) *core.Task {
	if li < 0 || li >= len(a.bwdFirst) {
		return nil
	}
	return a.bwdFirst[li]
}
