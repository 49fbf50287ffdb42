package whatif_test

// Structural patch equivalence suite: for every zoo model and every
// structural what-if with a patch form — Distributed (Algorithm 6),
// P3's annotation over a pre-repeated baseline (Algorithm 7, non-rewrite
// form), and removal-form batchnorm restructuring (Algorithm 5) — the
// clone-free patch simulation must reproduce the reference, the patch
// materialized into a private graph (its structural journal replayed
// through the real Graph primitives) and cold-simulated, bit for bit:
// same makespan, same start time and duration for every task (baseline
// and appendix IDs alike; Patch.NewTask allocates exactly the IDs a
// clone would have), same per-thread end times and the same critical
// path. A -race sweep drives concurrent structural patches over one
// shared baseline.

import (
	"fmt"
	"sync"
	"testing"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/sweep"
	"daydream/internal/whatif"
)

// patchEquivCase names one structural what-if of the suite. base lets
// a case substitute a derived baseline (P3's annotation runs over the
// Repeat-expanded graph).
type patchEquivCase struct {
	name string
	base func(t *testing.T, g *core.Graph) *core.Graph
	opt  core.Optimization
}

func patchEquivCases() []patchEquivCase {
	p3 := whatif.P3Options{Topology: topo4x1(5), SliceBytes: 800 << 10, Rounds: 2}
	fifo := whatif.P3Options{Topology: topo4x1(5), Rounds: 2}
	repeated := func(t *testing.T, g *core.Graph) *core.Graph {
		t.Helper()
		rep, err := g.Repeat(2)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	return []patchEquivCase{
		{name: "distributed", opt: whatif.OptDistributed(whatif.DistributedOptions{Topology: topo4x1(10)})},
		{name: "p3-annotate", base: repeated, opt: whatif.OptP3Annotate(p3)},
		{name: "ps-fifo-annotate", base: repeated, opt: whatif.OptP3Annotate(fifo)},
		{name: "reconbn-removal", opt: whatif.OptReconBatchnormRemoval(whatif.ReconBatchnormOptions{})},
	}
}

func TestStructuralPatchEquivalenceAcrossZoo(t *testing.T) {
	for _, name := range dnn.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := profile(t, name, framework.PyTorch)
			for _, tc := range patchEquivCases() {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					base := g
					if tc.base != nil {
						base = tc.base(t, g)
					}
					assertPatchEquivalence(t, base, tc)
				})
			}
		})
	}
}

func assertPatchEquivalence(t *testing.T, g *core.Graph, tc patchEquivCase) {
	t.Helper()
	p := core.NewPatch(g)
	if err := tc.opt.Apply(p); err != nil {
		t.Fatal(err)
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
	assertSameStructure(t, p, got, m, want)
	assertSameSchedule(t, p, got, m, want, true)
}

// assertSameStructure checks a patch view against its materialized
// reference beyond the schedule: the same effective ID span, the same
// live tasks with the same effective durations, and the same per-thread
// completion (including threads that exist only in the patch's
// appendix, e.g. fresh comm channels).
func assertSameStructure(t *testing.T, p *core.Patch, got *core.SimResult, m *core.Graph, want *core.SimResult) {
	t.Helper()
	if p.IDSpan() != m.IDSpan() {
		t.Fatalf("ID span: patch %d, reference %d", p.IDSpan(), m.IDSpan())
	}
	for id := 0; id < m.IDSpan(); id++ {
		mt, pt := m.Task(id), p.Task(id)
		if (mt == nil) != (pt == nil) {
			t.Fatalf("task %d liveness: patch %v, reference %v", id, pt, mt)
		}
		if mt == nil {
			continue
		}
		if gd, wd := got.TaskDuration(pt), want.TaskDuration(mt); gd != wd {
			t.Fatalf("task %d duration: patch %v, reference %v", id, gd, wd)
		}
	}
	if len(got.ThreadEnd) != len(want.ThreadEnd) {
		t.Fatalf("thread-end count: patch %d, reference %d", len(got.ThreadEnd), len(want.ThreadEnd))
	}
	for tid, end := range want.ThreadEnd {
		if got.ThreadEnd[tid] != end {
			t.Fatalf("thread %v end: patch %v, reference %v", tid, got.ThreadEnd[tid], end)
		}
	}
}

// TestOptP3AnnotateMatchesOptP3 pins the two P3 forms against each
// other end to end: the rewrite form (repeat inside the scenario) and
// the annotate form (patch over a shared pre-repeated baseline) must
// report the same steady-state iteration time through the sweep.
func TestOptP3AnnotateMatchesOptP3(t *testing.T) {
	g := profile(t, "resnet50", framework.MXNet)
	rep, err := g.Repeat(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, slice := range []int64{800 << 10, 0} {
		opts := whatif.P3Options{Topology: topo4x1(5), SliceBytes: slice, Rounds: 2}
		rewrite, err := sweep.Run(g, []sweep.Scenario{{Opt: whatif.OptP3(opts)}})
		if err != nil {
			t.Fatal(err)
		}
		patched, err := sweep.Run(rep, []sweep.Scenario{{Opt: whatif.OptP3Annotate(opts)}})
		if err != nil {
			t.Fatal(err)
		}
		if rewrite[0].Value != patched[0].Value {
			t.Fatalf("slice=%d: rewrite form %v, annotate form %v", slice, rewrite[0].Value, patched[0].Value)
		}
	}
	// The annotate form refuses a baseline that was never repeated.
	p := core.NewPatch(g)
	if err := whatif.P3Annotate(p, whatif.P3Options{Topology: topo4x1(5), Rounds: 2}); err == nil {
		t.Fatal("P3Annotate accepted a single-round baseline")
	}
}

// TestConcurrentStructuralPatchSweepRace fans structural patch
// scenarios (Distributed grids and removal-form batchnorm) over one
// shared baseline from several goroutines at once. Run under -race
// (the CI does) this verifies the structural copy-on-write sharing
// model: no worker ever writes to the shared graph or its memoized
// layer index.
func TestConcurrentStructuralPatchSweepRace(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	var scenarios []sweep.Scenario
	for i, gbps := range []float64{5, 10, 20, 40} {
		scenarios = append(scenarios, sweep.Scenario{
			Name: fmt.Sprintf("dist%d", i),
			Opt:  whatif.OptDistributed(whatif.DistributedOptions{Topology: topo4x1(gbps)}),
		})
	}
	scenarios = append(scenarios, sweep.Scenario{
		Opt: whatif.OptReconBatchnormRemoval(whatif.ReconBatchnormOptions{}),
	})
	want, err := sweep.Run(g, scenarios, sweep.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := sweep.Run(g, scenarios, sweep.Workers(3))
			if err != nil {
				t.Error(err)
				return
			}
			for j := range want {
				if got[j].Value != want[j].Value {
					t.Errorf("scenario %d: concurrent %v, sequential %v", j, got[j].Value, want[j].Value)
				}
			}
		}()
	}
	wg.Wait()
}
