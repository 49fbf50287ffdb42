package whatif

import (
	"fmt"

	"daydream/internal/core"
	"daydream/internal/trace"
	"daydream/internal/xpu"
)

// upgradeRatios validates the devices and returns the three scaling
// ratios of a device upgrade.
func upgradeRatios(from, to *xpu.Device) (compute, mem, pcie float64, err error) {
	if from == nil || to == nil {
		return 0, 0, 0, fmt.Errorf("whatif: DeviceUpgrade: both devices are required")
	}
	if from.FP32FLOPS <= 0 || from.MemBandwidth <= 0 || from.PCIeBandwidth <= 0 {
		return 0, 0, 0, fmt.Errorf("whatif: DeviceUpgrade: source device %q has incomplete specs", from.Name)
	}
	return from.FP32FLOPS / to.FP32FLOPS,
		from.MemBandwidth / to.MemBandwidth,
		from.PCIeBandwidth / to.PCIeBandwidth, nil
}

// OptDeviceUpgrade answers "would a faster GPU help?" (one of the
// paper's introductory what-if questions) from an existing profile:
// compute-bound kernels — identified by the same name convention
// Algorithm 3 uses — scale by the devices' arithmetic-throughput ratio,
// every other GPU task by the memory-bandwidth ratio, and host↔device
// copies by the PCIe ratio, each clamped to the target's kernel floor.
// CPU tasks are untouched, so the prediction exposes where an upgrade
// would merely shift the bottleneck to the host — the same insight as
// the paper's AMP analysis (§6.2).
//
// Timing-only: the rescaled durations are recorded as copy-on-write
// deltas, with the task list and compute classification served by the
// memoized layer/phase index — device grids (many targets from one
// profile) neither clone nor string-match anything.
func OptDeviceUpgrade(from, to *xpu.Device) core.Optimization {
	name := "upgrade"
	if to != nil {
		name = fmt.Sprintf("upgrade to %s", to.Name)
	}
	return core.PatchOpt(name, core.TimingOnly, func(p *core.Patch) error {
		compute, mem, pcie, err := upgradeRatios(from, to)
		if err != nil {
			return err
		}
		ix := p.Base().LayerPhaseIndex()
		isCompute := ix.GPUComputeBound()
		for i, u := range ix.GPUTasks() {
			ratio := mem
			switch {
			case u.Kind == trace.KindMemcpy:
				ratio = pcie
			case isCompute[i]:
				ratio = compute
			}
			d := scaleDuration(p.Duration(u), ratio)
			if d < to.KernelFloor {
				d = to.KernelFloor
			}
			p.SetDuration(u, d)
		}
		return nil
	}, nil)
}
