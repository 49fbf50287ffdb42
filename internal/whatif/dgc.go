package whatif

import (
	"fmt"
	"strings"
	"time"

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

// allReduces returns the all-reduce tasks live in the patch's effective
// view (a fresh slice): the appendix tasks of a distributed part applied
// earlier in the same Stack, or the baseline tasks of a traced
// multi-GPU run.
func allReduces(p *core.Patch, who string) ([]*core.Task, error) {
	var out []*core.Task
	for _, t := range p.Tasks() {
		if t.Kind == trace.KindComm && strings.Contains(t.Name, "AllReduce") {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("whatif: %s: no allReduce tasks in view (stack it after OptDistributed, or profile a multi-GPU run)", who)
	}
	return out, nil
}

// OptDGC returns deep gradient compression (Lin et al.) per the paper's
// §5.2 and Algorithm 12 as a patch-form Optimization value. For every
// all-reduce in the view: (i) its duration is scaled by the compression
// ratio, and (ii) a compression kernel is inserted before, and a
// decompression kernel after, the communication primitive, with
// durations estimated from the view's element-wise kernels. An
// all-reduce the patch created also has its Bytes scaled; a baseline
// task's fields are never written.
func OptDGC(opts DGCOptions) core.Optimization {
	opts.defaults()
	return core.PatchOpt("dgc", core.Structural, func(p *core.Patch) error {
		reduces, err := allReduces(p, "DGC")
		if err != nil {
			return err
		}
		var sum, n time.Duration
		for _, t := range p.Tasks() {
			if t.OnGPU() && strings.Contains(t.Name, "elementwise") {
				sum += p.Duration(t)
				n++
			}
		}
		if n == 0 || sum/n == 0 {
			return fmt.Errorf("whatif: DGC: no element-wise kernels to estimate from")
		}
		kcost := scaleDuration(sum/n, opts.KernelCostFactor)
		for _, r := range reduces {
			p.ScaleDuration(r, opts.CompressionRatio)
			if p.Base().Task(r.ID) != r {
				r.Bytes = int64(float64(r.Bytes) * opts.CompressionRatio)
			}
			// Compression runs on the GPU after the gradients (the
			// all-reduce's compute parents) are ready and gates the
			// transfer. The inserted kernels are not threaded into the
			// stream's fixed sequence: their position is decided at
			// simulation time by thread progress, like any dynamically
			// scheduled kernel (appending them after the weight-update
			// kernels would manufacture a cycle through the all-reduce).
			parents, children := p.Parents(r), p.Children(r)
			compress := p.NewTask("dgc_compress_topk", trace.KindKernel, gpuAnchor(parents, children), kcost)
			for _, q := range parents {
				if q.OnGPU() {
					if err := p.AddDependency(q, compress, core.DepCustom); err != nil {
						return err
					}
				}
			}
			if err := p.AddDependency(compress, r, core.DepCustom); err != nil {
				return err
			}
			decompress := p.NewTask("dgc_decompress", trace.KindKernel, compress.Thread, kcost)
			if err := p.AddDependency(r, decompress, core.DepCustom); err != nil {
				return err
			}
			for _, c := range children {
				if err := p.AddDependency(decompress, c, core.DepCustom); err != nil {
					return err
				}
			}
		}
		return nil
	}, nil)
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
