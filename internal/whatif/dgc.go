package whatif

import (
	"fmt"

	"daydream/internal/core"
	"daydream/internal/trace"
)

// DGCOptions configures the deep-gradient-compression what-if.
type DGCOptions struct {
	// CompressionRatio is the fraction of gradient traffic that remains
	// after compression (DGC reaches ~0.3% = 0.003).
	CompressionRatio float64
	// KernelCostFactor scales the estimated compression/decompression
	// kernel durations relative to the profile's mean element-wise
	// kernel (top-k selection is more expensive than a pure pointwise
	// op).
	KernelCostFactor float64
}

func (o *DGCOptions) defaults() {
	if o.CompressionRatio == 0 {
		o.CompressionRatio = 0.003
	}
	if o.KernelCostFactor == 0 {
		o.KernelCostFactor = 4
	}
}

// DGC models deep gradient compression (Lin et al.) per the paper's §5.2
// and Algorithm 12, applied to a graph that already carries communication
// tasks (a materialized DistributedPatch): (i) every all-reduce's
// duration is scaled by the compression ratio, and (ii) compression
// kernels are inserted before, and decompression kernels after, each
// communication primitive, with durations estimated from existing
// element-wise kernels.
func DGC(g *core.Graph, opts DGCOptions) error {
	opts.defaults()
	reduces := g.Select(core.And(core.KindIs(trace.KindComm), core.NameContains("AllReduce")))
	if len(reduces) == 0 {
		return fmt.Errorf("whatif: DGC: no allReduce tasks in graph (apply DistributedPatch and materialize first)")
	}
	ew := g.Select(core.And(core.OnGPUPred, core.NameContains("elementwise")))
	est := core.MeanDuration(ew)
	if est == 0 {
		return fmt.Errorf("whatif: DGC: no element-wise kernels to estimate from")
	}
	kcost := scaleDuration(est, opts.KernelCostFactor)
	for _, r := range reduces {
		r.Duration = scaleDuration(r.Duration, opts.CompressionRatio)
		r.Bytes = int64(float64(r.Bytes) * opts.CompressionRatio)

		// Compression runs on the GPU after the gradients (the
		// all-reduce's compute parents) are ready and gates the
		// transfer.
		// The inserted kernels are not threaded into the stream's
		// fixed sequence: their position is decided at simulation
		// time by thread progress, like any dynamically scheduled
		// kernel (appending them after the weight-update kernels
		// would manufacture a cycle through the all-reduce).
		parents := append([]*core.Task(nil), r.Parents()...)
		children := append([]*core.Task(nil), r.Children()...)
		compress := g.NewTask("dgc_compress_topk", trace.KindKernel, gpuAnchor(parents, children), kcost)
		for _, p := range parents {
			if p.OnGPU() {
				if err := g.AddDependency(p, compress, core.DepCustom); err != nil {
					return err
				}
			}
		}
		if err := g.AddDependency(compress, r, core.DepCustom); err != nil {
			return err
		}

		decompress := g.NewTask("dgc_decompress", trace.KindKernel, compress.Thread, kcost)
		if err := g.AddDependency(r, decompress, core.DepCustom); err != nil {
			return err
		}
		for _, c := range children {
			if err := g.AddDependency(decompress, c, core.DepCustom); err != nil {
				return err
			}
		}
	}
	return nil
}

// gpuAnchor picks a GPU stream for inserted kernels: the stream of any
// GPU-side neighbour, defaulting to stream 7.
func gpuAnchor(parents, children []*core.Task) core.ThreadID {
	for _, t := range parents {
		if t.OnGPU() {
			return t.Thread
		}
	}
	for _, t := range children {
		if t.OnGPU() {
			return t.Thread
		}
	}
	return core.Stream(7)
}
