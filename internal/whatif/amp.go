package whatif

import "daydream/internal/core"

// OptAMP returns automatic mixed precision (Micikevicius et al.,
// implemented by NVIDIA Apex) exactly as the paper's Algorithm 3: every
// GPU task whose name marks it compute-intensive ("sgemm"/"scudnn")
// shrinks 3× — the empirical tensor-core ceiling the paper cites [57] —
// and every other GPU task shrinks 2×, because halving the transferred
// bits halves a memory-bound kernel's time. CPU tasks are untouched,
// which is why AMP's end-to-end gains are far below 3× on CPU-bound
// models (paper §6.2).
//
// Timing-only: the scaling is recorded in the patch's timing tier, and
// both the GPU task list and the compute-intensive classification come
// from the baseline's memoized layer/phase index, so repeated AMP
// scenarios over one profile neither scan nor string-match anything.
func OptAMP() core.Optimization {
	return core.PatchOpt("amp", core.TimingOnly, func(p *core.Patch) error {
		ix := p.Base().LayerPhaseIndex()
		compute := ix.GPUComputeBound()
		for i, u := range ix.GPUTasks() {
			if compute[i] {
				p.SetDuration(u, p.Duration(u)/3)
			} else {
				p.SetDuration(u, p.Duration(u)/2)
			}
		}
		return nil
	}, nil)
}
