package whatif

import (
	"fmt"
	"sort"
	"time"

	"daydream/internal/core"
)

// KernelProfile carries externally measured kernel durations, keyed by a
// substring of the kernel name. This implements the paper's §7.4
// workflow: "Developers can profile their individual kernels, and then
// input the profiling results into Daydream to accurately estimate the
// overall runtime" — saving the engineering effort of porting a new
// kernel implementation into the framework before knowing whether it
// pays off.
type KernelProfile map[string]time.Duration

// sortedKeys returns the profile keys longest first, so the most
// specific pattern wins.
func (p KernelProfile) sortedKeys() []string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return len(keys[i]) > len(keys[j]) })
	return keys
}

// OptKernelProfile returns the externally-profiled-kernel what-if
// (paper §7.4) as an Optimization value: the duration of every GPU task
// whose name contains a profile key is overwritten with the profiled
// one. When several keys match one task, the longest key wins (most
// specific). Timing-only: the profiled durations are recorded as
// copy-on-write deltas — typically a handful of sparse edits — over the
// shared baseline.
func OptKernelProfile(profile KernelProfile) core.Optimization {
	return core.PatchOpt("kprofile", core.TimingOnly, func(p *core.Patch) error {
		if len(profile) == 0 {
			return nil
		}
		keys := profile.sortedKeys()
		for _, u := range p.Base().LayerPhaseIndex().GPUTasks() {
			for _, k := range keys {
				if core.NameContains(k)(u) {
					p.SetDuration(u, profile[k])
					break
				}
			}
		}
		return nil
	}, nil)
}

// OptScale returns the COZ-style "what if GPU kernels whose name
// contains sub ran at factor× their duration" question — the generic
// what-if the paper's related work poses, expressed with the
// primitives — as a timing-only Optimization value.
func OptScale(sub string, factor float64) core.Optimization {
	name := fmt.Sprintf("scale %q x%g", sub, factor)
	return core.PatchOpt(name, core.TimingOnly, func(p *core.Patch) error {
		for _, u := range p.Base().LayerPhaseIndex().GPUTasksMatching(sub) {
			p.ScaleDuration(u, factor)
		}
		return nil
	}, nil)
}
