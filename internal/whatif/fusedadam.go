package whatif

import (
	"fmt"
	"time"

	"daydream/internal/core"
)

// OptFusedAdam returns Apex's fused Adam optimizer per the paper's §5.1
// and Algorithm 4: the weight-update phase collapses into one fused GPU
// kernel — the earliest weight-update kernel in the traced schedule —
// whose duration is estimated as the sum of the superseded kernels'
// durations, and the thousands of CUDA launches that bottleneck the CPU
// disappear. The estimate is deliberately the paper's (it cannot know
// the fused implementation's true memory traffic), which is one of the
// places prediction error comes from.
//
// Timing-only: instead of removing the superseded kernels and their
// launch calls, the value zeroes their durations and gaps in the
// patch's timing tier, which yields the same simulated makespan and the
// same start time for every surviving task as Algorithm 4's removal.
// The equivalence holds because every zeroed task is sequence-chained
// on its thread (they are traced kernels/launches): its thread-progress
// term equals its sequence parent's end, so everything a zero-time task
// forwards — dependency-parent ends and thread progress alike — is an
// ordering constraint Remove's reconnection edges preserve. (The zeroed
// tasks still exist, so a critical path may route through them where
// the removal routes through the reconnection edges.)
func OptFusedAdam() core.Optimization {
	return core.PatchOpt("fusedadam", core.TimingOnly, func(p *core.Patch) error {
		g := p.Base()
		if err := requireLayers(g, "FusedAdam"); err != nil {
			return err
		}
		wuGPU := g.LayerPhaseIndex().WeightUpdateGPUTasks()
		if len(wuGPU) == 0 {
			return fmt.Errorf("whatif: FusedAdam: no weight-update GPU tasks found")
		}
		first := wuGPU[0]
		var sum time.Duration
		for _, u := range wuGPU {
			sum += p.Duration(u)
			if u.TracedStart < first.TracedStart {
				first = u
			}
		}
		p.SetDuration(first, sum)
		for _, u := range wuGPU {
			if u == first {
				continue
			}
			if peer := u.Peer(); peer != nil && peer.OnCPU() {
				p.SetDuration(peer, 0)
				p.SetGap(peer, 0)
			}
			p.SetDuration(u, 0)
			p.SetGap(u, 0)
		}
		return nil
	}, nil)
}
