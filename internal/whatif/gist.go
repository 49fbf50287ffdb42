package whatif

import (
	"fmt"

	"daydream/internal/core"
	"daydream/internal/mem"
	"daydream/internal/trace"
)

// GistOptions configures the Gist what-if.
type GistOptions struct {
	// Lossy additionally inserts the Delayed Precision Reduction (DPR)
	// kernels of Gist's lossy mode around non-ReLU activations.
	Lossy bool
	// EncodeLayer reports whether a layer's activations are encoded;
	// the default selects ReLU outputs (Gist's lossless SSDC/binarize
	// targets ReLU→pool and ReLU→conv patterns).
	EncodeLayer func(gr trace.GradientInfo) bool
	// CompressionRatio is how much smaller an encoded activation is;
	// the default 2 models both SSDC on sparse ReLU maps and DPR's
	// fp32→fp16 reduction. Used by the memory measurer only — the
	// latency model depends on kernel durations, not the ratio.
	CompressionRatio float64
}

func (o *GistOptions) defaults() {
	if o.EncodeLayer == nil {
		o.EncodeLayer = func(gr trace.GradientInfo) bool { return gr.Kind == "relu" }
	}
	if o.CompressionRatio <= 1 {
		o.CompressionRatio = 2
	}
}

// gistSSDCEncode, gistDPREncode and gistDecodeName are the task names
// the memory measurer scans for.
const (
	gistSSDCEncode = "gist_ssdc_encode"
	gistDPREncode  = "gist_dpr_encode"
	gistDecodeName = "gist_decode"
)

// GistPatch models the memory-footprint optimization of Jain et al. per
// the paper's §5.2 and Algorithm 11 as a copy-on-write structural
// patch: an encode kernel splices onto the stream right after each
// targeted activation's last forward kernel, and a decode kernel right
// before its first backward kernel. Both ride the stream sequence; no
// CPU launch call is inserted. Their durations are estimated from the
// baseline's element-wise kernels, as the paper suggests ("the duration
// of the inserted encoding/decoding kernels can be estimated using
// existing element-wise kernels"), falling back to the mean GPU kernel
// when a workload has none. Simulating the result quantifies Gist's
// runtime overhead.
func GistPatch(p *core.Patch, opts GistOptions) error { return gistInto(p, p, opts) }

// gistInto reads workload metadata from the patch's baseline, scans view
// (the patch itself, or a wrapper over it) once for layer anchors, and
// records the encode/decode insertions on p — the same shape as
// vdnnInto.
func gistInto(p *core.Patch, view core.TaskView, opts GistOptions) error {
	g := p.Base()
	if err := requireLayers(g, "Gist"); err != nil {
		return err
	}
	opts.defaults()
	ix := g.LayerPhaseIndex()
	est := core.MeanDuration(ix.GPUTasksMatching("elementwise"))
	if est == 0 {
		est = core.MeanDuration(ix.GPUTasks())
	}
	if est == 0 {
		return fmt.Errorf("whatif: Gist: no GPU kernels to estimate encode/decode durations from")
	}
	grads := gradientsByIndex(g)
	layers := sortedLayerIndices(grads)
	anchors := scanLayerAnchors(view, layerSpan(layers))
	inserted := 0
	for _, li := range layers {
		gr := grads[li]
		isTarget := opts.EncodeLayer(gr)
		if !isTarget && !(opts.Lossy && gr.Kind != "relu" && gr.ActBytes > 0) {
			continue
		}
		fwdLast := anchors.lastFwd(li)
		bwdFirst := anchors.firstBwd(li)
		if fwdLast == nil || bwdFirst == nil {
			continue
		}
		name := gistSSDCEncode
		if !isTarget {
			name = gistDPREncode
		}
		enc := p.NewTask(name, trace.KindKernel, fwdLast.Thread, est)
		enc.Layer, enc.LayerIndex, enc.Phase, enc.HasLayer = gr.Layer, li, trace.Forward, true
		if err := p.InsertAfter(fwdLast, enc); err != nil {
			return err
		}
		dec := p.NewTask(gistDecodeName, trace.KindKernel, bwdFirst.Thread, est)
		dec.Layer, dec.LayerIndex, dec.Phase, dec.HasLayer = gr.Layer, li, trace.Backward, true
		if err := p.InsertBefore(bwdFirst, dec); err != nil {
			return err
		}
		// The decode reads the encoded buffer; explicit even when the
		// stream sequence already orders them (multi-stream traces).
		if err := p.AddDependency(enc, dec, core.DepCustom); err != nil {
			return err
		}
		inserted++
	}
	if inserted == 0 {
		return fmt.Errorf("whatif: Gist: no target activations found")
	}
	return nil
}

// gistOpt is OptGist's value: patch-form structural surgery plus the
// memory-measurer half of the what-if.
type gistOpt struct{ opts GistOptions }

// OptGist returns the Gist what-if (Algorithm 11) as an Optimization
// value: the encode/decode insertions apply as clone-free patch deltas,
// and the value implements mem.MemMeasurer, so memory-aware surfaces
// report the compressed activations' predicted savings alongside the
// encode/decode latency overhead.
func OptGist(opts GistOptions) core.Optimization { return &gistOpt{opts: opts} }

// Name implements core.Optimization.
func (gi *gistOpt) Name() string { return "gist" }

// Footprint implements core.Optimization.
func (gi *gistOpt) Footprint() core.OptFootprint { return core.Structural }

// Apply implements core.Optimization.
func (gi *gistOpt) Apply(p *core.Patch) error { return GistPatch(p, gi.opts) }

// RewriteTensors implements mem.MemMeasurer: an encoded activation is
// full-size only until its encode kernel finishes, lives compressed
// (Bytes / CompressionRatio) until its decode kernel reads it back, and
// is rematerialized full-size from the decode for its backward
// consumers. Encode/decode tasks are found in the view by the layer
// mapping gistInto stamps on them, so the rewrite is identical over a
// Patch and over the materialized clone.
func (gi *gistOpt) RewriteTensors(view core.TaskView, tensors []mem.Tensor) ([]mem.Tensor, error) {
	ratio := gi.opts.CompressionRatio
	if ratio <= 1 {
		ratio = 2
	}
	enc := make(map[int]int)
	dec := make(map[int]int)
	for _, t := range view.Tasks() {
		if !t.HasLayer {
			continue
		}
		switch t.Name {
		case gistSSDCEncode, gistDPREncode:
			enc[t.LayerIndex] = t.ID
		case gistDecodeName:
			dec[t.LayerIndex] = t.ID
		}
	}
	out := make([]mem.Tensor, 0, len(tensors))
	for _, tn := range tensors {
		e, okE := enc[tn.LayerIndex]
		d, okD := dec[tn.LayerIndex]
		if !okE || !okD {
			out = append(out, tn)
			continue
		}
		full := tn
		full.Consumers = []int{e}
		compressed := tn
		compressed.Bytes = int64(float64(tn.Bytes) / ratio)
		compressed.Producer = e
		compressed.Consumers = []int{d}
		decoded := tn
		decoded.Producer = d
		decoded.Consumers = append([]int(nil), tn.Consumers...)
		out = append(out, full, compressed, decoded)
	}
	return out, nil
}
