package whatif_test

// Stack equivalence suite: for every zoo model, a composed Stack of
// timing-only what-ifs applied through one patch must be bit-identical
// to applying its parts one after another — each part recorded on a
// patch over the previous part's materialized graph, the last
// materialization cold-simulated: same makespan, same start time for
// every task, same critical path.

import (
	"testing"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/mem"
	"daydream/internal/whatif"
)

// stackCases lists composed what-ifs checked zoo-wide against their
// sequential application.
func stackCases() []struct {
	name  string
	parts []core.Optimization
} {
	profile := whatif.KernelProfile{"sgemm": 0}
	return []struct {
		name  string
		parts []core.Optimization
	}{
		{"amp+fusedadam", []core.Optimization{whatif.OptAMP(), whatif.OptFusedAdam()}},
		{"amp+kprofile+reconbn", []core.Optimization{
			whatif.OptAMP(), whatif.OptKernelProfile(profile), whatif.OptReconBatchnorm(whatif.ReconBatchnormOptions{}),
		}},
	}
}

func TestStackEquivalenceAcrossZoo(t *testing.T) {
	for _, name := range dnn.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := profile(t, name, framework.PyTorch)
			for _, tc := range stackCases() {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					assertStackEquivalence(t, g, tc.parts)
				})
			}
		})
	}
}

func assertStackEquivalence(t *testing.T, g *core.Graph, parts []core.Optimization) {
	t.Helper()
	stack := core.Stack(parts...)
	if fp := stack.Footprint(); fp != core.TimingOnly {
		t.Fatalf("stack of timing-only optimizations has footprint %v", fp)
	}

	// Reference: the parts applied one after the other, each over the
	// previous part's materialized graph.
	seq := g
	var seqErr error
	for _, part := range parts {
		if seq, seqErr = materialized(seq, part); seqErr != nil {
			break
		}
	}
	p := core.NewPatch(g)
	stackErr := stack.Apply(p)
	if (seqErr == nil) != (stackErr == nil) {
		t.Fatalf("error mismatch: sequential=%v stack=%v", seqErr, stackErr)
	}
	if seqErr != nil {
		return // both forms reject the workload the same way
	}

	want, err := seq.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	assertSameSchedule(t, p, got, seq, want, true)
}

// TestAMPThenGistMatchesSequential: Gist stacked after AMP on one patch
// sizes its encode/decode kernels from AMP's durations, exactly as Gist
// applied over AMP's materialized graph does: the same makespan, the
// same start for every task and the same memory peak.
func TestAMPThenGistMatchesSequential(t *testing.T) {
	for _, name := range []string{"vgg19", "resnet50"} {
		name := name
		t.Run(name, func(t *testing.T) {
			g := profile(t, name, framework.PyTorch)
			amp, gist := whatif.OptAMP(), whatif.OptGist(whatif.GistOptions{})
			mid, err := materialized(g, amp)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := materialized(mid, gist)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Simulate()
			if err != nil {
				t.Fatal(err)
			}
			stack := core.Stack(amp, gist)
			p := core.NewPatch(g)
			if err := stack.Apply(p); err != nil {
				t.Fatal(err)
			}
			got, err := p.Simulate()
			if err != nil {
				t.Fatal(err)
			}
			assertSameSchedule(t, p, got, ref, want, false)

			wantSpan, wantProf, err := mem.ProfileOpt(mid, gist)
			if err != nil {
				t.Fatal(err)
			}
			gotSpan, gotProf, err := mem.ProfileOpt(g, stack)
			if err != nil {
				t.Fatal(err)
			}
			if gotSpan != wantSpan {
				t.Fatalf("ProfileOpt makespan: stack %v, sequential %v", gotSpan, wantSpan)
			}
			if gp, wp := gotProf.Peak(mem.DeviceGPU), wantProf.Peak(mem.DeviceGPU); gp != wp {
				t.Fatalf("memory peak: stack %d, sequential %d", gp, wp)
			}
		})
	}
}
