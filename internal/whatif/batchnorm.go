package whatif

import (
	"strings"

	"daydream/internal/core"
)

// ReconBatchnormOptions configures the batchnorm-restructuring what-if.
type ReconBatchnormOptions struct {
	// IsReLU and IsBatchNorm classify layers by name. Defaults match
	// the model zoo's naming ("relu", "bn"/"batchnorm" substrings).
	IsReLU      func(layer string) bool
	IsBatchNorm func(layer string) bool
}

func (o *ReconBatchnormOptions) defaults(g *core.Graph) {
	kinds := make(map[string]string)
	for _, gr := range g.Meta.Gradients {
		kinds[gr.Layer] = gr.Kind
	}
	if o.IsReLU == nil {
		o.IsReLU = func(layer string) bool {
			if k, ok := kinds[layer]; ok && k != "" {
				return k == "relu"
			}
			return strings.Contains(layer, "relu")
		}
	}
	if o.IsBatchNorm == nil {
		o.IsBatchNorm = func(layer string) bool {
			if k, ok := kinds[layer]; ok && k != "" {
				return k == "batchnorm"
			}
			return strings.Contains(layer, "bn") || strings.Contains(layer, "batchnorm")
		}
	}
}

// bnEdit is what Algorithm 5 does to one GPU kernel.
type bnEdit uint8

const (
	bnKeep   bnEdit = iota
	bnRemove        // activation (ReLU) kernel: fused away
	bnHalve         // batch-normalization kernel: half the input data
)

// classify is the one layer classifier both forms of Algorithm 5 share,
// so the zeroing and removal forms cannot drift apart.
func (o *ReconBatchnormOptions) classify(u *core.Task) bnEdit {
	switch {
	case !u.HasLayer:
		return bnKeep
	case o.IsReLU(u.Layer):
		return bnRemove
	case o.IsBatchNorm(u.Layer):
		return bnHalve
	}
	return bnKeep
}

// reconBatchnormKernels validates the baseline, fills in the default
// classifiers and returns the GPU kernels to classify.
func reconBatchnormKernels(g *core.Graph, opts *ReconBatchnormOptions) ([]*core.Task, error) {
	if err := requireLayers(g, "ReconBatchnorm"); err != nil {
		return nil, err
	}
	opts.defaults(g)
	return g.LayerPhaseIndex().GPUTasks(), nil
}

// OptReconBatchnorm returns the batchnorm-restructuring optimization of
// Jung et al. per the paper's §5.1 and Algorithm 5: activation (ReLU)
// GPU kernels disappear — they are memory-bound kernels now fused with
// the neighbouring compute-intensive convolutions — and
// batch-normalization GPU kernels shrink 2× because the split
// sub-layers halve the input data they load from GPU memory. As §6.4
// discusses, this idealized model does not know the re-implementation's
// new memory copies and allocations, so it overestimates the real gain.
//
// Timing-only: activation kernels drop to zero duration and gap in the
// patch's timing tier instead of being removed. The simulated makespan
// and every surviving task's start match the removal form
// (OptReconBatchnormRemoval) exactly — a zero-time task forwards the
// same ordering constraints Remove's reconnection edges preserve; only
// the critical path may route through the zeroed kernels instead of
// around them.
func OptReconBatchnorm(opts ReconBatchnormOptions) core.Optimization {
	return core.PatchOpt("reconbn", core.TimingOnly, func(p *core.Patch) error {
		opts := opts
		kernels, err := reconBatchnormKernels(p.Base(), &opts)
		if err != nil {
			return err
		}
		for _, u := range kernels {
			switch opts.classify(u) {
			case bnRemove:
				p.SetDuration(u, 0)
				p.SetGap(u, 0)
			case bnHalve:
				p.SetDuration(u, p.Duration(u)/2)
			}
		}
		return nil
	}, nil)
}

// ReconBatchnormPatch is Algorithm 5's removal form as copy-on-write
// structural deltas: activation (ReLU) GPU kernels are removed through
// the patch's RemoveTask — with the reconnection edges a materialized
// removal would add, recorded over the shared baseline — and batch-normalization kernels
// halve through the timing tier. It predicts the same makespan and
// starts as OptReconBatchnorm, and its critical path routes around the
// removed kernels.
func ReconBatchnormPatch(p *core.Patch, opts ReconBatchnormOptions) error {
	kernels, err := reconBatchnormKernels(p.Base(), &opts)
	if err != nil {
		return err
	}
	for _, u := range kernels {
		switch opts.classify(u) {
		case bnRemove:
			p.RemoveTask(u)
		case bnHalve:
			p.SetDuration(u, p.Duration(u)/2)
		}
	}
	return nil
}

// OptReconBatchnormRemoval returns Algorithm 5's removal form
// (ReconBatchnormPatch) as a structural Optimization value, for
// consumers that need the restructured graph shape (e.g. critical paths
// that must route around the removed kernels) — still without cloning
// the baseline.
func OptReconBatchnormRemoval(opts ReconBatchnormOptions) core.Optimization {
	return core.PatchOpt("reconbn-removal", core.Structural,
		func(p *core.Patch) error { return ReconBatchnormPatch(p, opts) }, nil)
}
