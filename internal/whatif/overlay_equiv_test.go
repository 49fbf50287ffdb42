package whatif_test

// Timing-tier equivalence suite: for every zoo model and every
// timing-only what-if, simulating the patch's copy-on-write timing tier
// over the shared baseline must reproduce the reference — the patch
// materialized into a private graph and cold-simulated — bit for bit:
// same makespan, same start time for every task, same critical path.
// The zeroing forms (FusedAdam, batchnorm restructuring) are further
// held to the removal forms of Algorithms 4 and 5 on makespan and the
// starts of every task the removal keeps.

import (
	"fmt"
	"testing"
	"time"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/whatif"
	"daydream/internal/xpu"
)

// equivCase names one timing-only what-if of the suite.
type equivCase struct {
	name string
	opt  core.Optimization
}

func equivCases() []equivCase {
	profile := whatif.KernelProfile{
		"sgemm":    1500 * time.Microsecond,
		"elemwise": 20 * time.Microsecond,
		"sgemm_fp": 900 * time.Microsecond, // longer key must win over "sgemm"
	}
	return []equivCase{
		{"amp", whatif.OptAMP()},
		{"kernelprofile", whatif.OptKernelProfile(profile)},
		{"scalebyname", whatif.OptScale("elemwise", 0.25)},
		{"upgrade", whatif.OptDeviceUpgrade(xpu.RTX2080Ti(), xpu.V100())},
		{"fusedadam", whatif.OptFusedAdam()},
		{"batchnorm", whatif.OptReconBatchnorm(whatif.ReconBatchnormOptions{})},
	}
}

func TestOverlayEquivalenceAcrossZoo(t *testing.T) {
	for _, name := range dnn.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := profile(t, name, framework.PyTorch)
			for _, tc := range equivCases() {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					assertOverlayEquivalence(t, g, tc.opt)
				})
			}
		})
	}
}

func assertOverlayEquivalence(t *testing.T, g *core.Graph, opt core.Optimization) {
	t.Helper()
	if opt.Footprint() != core.TimingOnly {
		t.Fatalf("footprint = %v", opt.Footprint())
	}
	p := core.NewPatch(g)
	if err := opt.Apply(p); err != nil {
		return // the workload lacks what the model needs (FusedAdam on SGD)
	}
	if p.Structural() {
		t.Fatal("timing-only Apply recorded structural deltas")
	}
	got, err := p.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	assertSameSchedule(t, p, got, m, want, true)
}

// fusedAdamRemoval is Algorithm 4 as the paper states it: the earliest
// weight-update kernel becomes the fused kernel carrying the summed
// duration, and every other weight-update kernel is removed together
// with the CPU launch that triggered it.
func fusedAdamRemoval() core.Optimization {
	return core.PatchOpt("fusedadam-removal", core.Structural, func(p *core.Patch) error {
		wu := p.Base().LayerPhaseIndex().WeightUpdateGPUTasks()
		if len(wu) == 0 {
			return fmt.Errorf("no weight-update GPU tasks")
		}
		first := wu[0]
		var sum time.Duration
		for _, u := range wu {
			sum += p.Duration(u)
			if u.TracedStart < first.TracedStart {
				first = u
			}
		}
		p.SetDuration(first, sum)
		for _, u := range wu {
			if u == first {
				continue
			}
			if peer := u.Peer(); peer != nil && peer.OnCPU() {
				p.RemoveTask(peer)
			}
			p.RemoveTask(u)
		}
		return nil
	}, nil)
}

// TestZeroingMatchesRemovalAcrossZoo holds the timing-only zeroing
// forms of Algorithms 4 and 5 to their removal forms: the same makespan
// and the same start for every task the removal keeps. Only the
// critical path may differ, routing through the zeroed tasks instead of
// around them.
func TestZeroingMatchesRemovalAcrossZoo(t *testing.T) {
	pairs := []struct {
		name              string
		zeroing, removing core.Optimization
	}{
		{"fusedadam", whatif.OptFusedAdam(), fusedAdamRemoval()},
		{"reconbn", whatif.OptReconBatchnorm(whatif.ReconBatchnormOptions{}),
			whatif.OptReconBatchnormRemoval(whatif.ReconBatchnormOptions{})},
	}
	for _, name := range dnn.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := profile(t, name, framework.PyTorch)
			for _, pair := range pairs {
				pair := pair
				t.Run(pair.name, func(t *testing.T) {
					zp := core.NewPatch(g)
					zErr := pair.zeroing.Apply(zp)
					removed, rErr := materialized(g, pair.removing)
					if (zErr == nil) != (rErr == nil) {
						t.Fatalf("error mismatch: zeroing=%v removal=%v", zErr, rErr)
					}
					if zErr != nil {
						return // both forms reject the workload the same way
					}
					got, err := zp.Simulate()
					if err != nil {
						t.Fatal(err)
					}
					want, err := removed.Simulate()
					if err != nil {
						t.Fatal(err)
					}
					assertSameSchedule(t, zp, got, removed, want, false)
				})
			}
		})
	}
}
