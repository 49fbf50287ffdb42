package whatif_test

// Incremental-vs-cold equivalence suite: for every zoo model, the
// affected-cone incremental re-simulation (core.IncrementalSim) must
// reproduce a cold Simulate bit for bit — same makespan, same start for
// every task, same per-thread ends, same effective timings — for every
// duration-only what-if of the registry AND for randomized overlay and
// patch deltas. Structural patch deltas exercise the documented cold
// fallback through the same ReSimulate entry point, so correctness
// never depends on the convergence heuristic. The whole suite runs
// under -race in CI (one warm build shared across sequential calls).

import (
	"math/rand"
	"testing"
	"time"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
)

// assertIncrEquiv compares incremental and cold results bit for bit.
func assertIncrEquiv(t *testing.T, v core.TaskView, got, want *core.SimResult) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Fatalf("makespan: incremental %v, cold %v", got.Makespan, want.Makespan)
	}
	if len(got.Start) != len(want.Start) {
		t.Fatalf("start span: incremental %d, cold %d", len(got.Start), len(want.Start))
	}
	for id := range want.Start {
		if got.Start[id] != want.Start[id] {
			t.Fatalf("task %d start: incremental %v, cold %v", id, got.Start[id], want.Start[id])
		}
	}
	if len(got.ThreadEnd) != len(want.ThreadEnd) {
		t.Fatalf("thread-end count: incremental %d, cold %d", len(got.ThreadEnd), len(want.ThreadEnd))
	}
	for tid, end := range want.ThreadEnd {
		if got.ThreadEnd[tid] != end {
			t.Fatalf("thread %v end: incremental %v, cold %v", tid, got.ThreadEnd[tid], end)
		}
	}
	for _, task := range v.Tasks() {
		if gd, wd := got.TaskDuration(task), want.TaskDuration(task); gd != wd {
			t.Fatalf("task %d duration: incremental %v, cold %v", task.ID, gd, wd)
		}
	}
}

// TestIncrementalEquivalenceAcrossZoo re-simulates every registry
// duration-only what-if (the timing tiers of the timing-tier
// equivalence suite) incrementally and pins bit-identity with the cold path. These
// deltas are all timing-only over dependency-forced threads, so the
// only fallback allowed is the dense-delta performance cutoff: a
// what-if editing more than 1/8 of the live tasks (AMP, fusedadam,
// upgrade) is answered cold because replaying the whole schedule is
// cheaper than propagating a near-total cone, while sparse what-ifs
// (batchnorm restructuring, scale-by-name) must stay incremental.
func TestIncrementalEquivalenceAcrossZoo(t *testing.T) {
	for _, name := range dnn.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := profile(t, name, framework.PyTorch)
			sim, err := core.NewIncrementalSim(g)
			if err != nil {
				t.Fatal(err)
			}
			buf := &core.SimResult{}
			for _, tc := range equivCases() {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					p := core.NewPatch(g)
					if err := tc.opt.Apply(p); err != nil {
						return // the workload is rejected; nothing to compare
					}
					edits := 0
					for _, u := range g.Tasks() {
						if p.Duration(u) != u.Duration || p.Gap(u) != u.Gap {
							edits++
						}
					}
					got, err := sim.ReSimulate(p, core.WithResultBuffer(buf))
					if err != nil {
						t.Fatal(err)
					}
					dense := edits*8 > g.NumTasks()
					if sim.LastFellBack() != dense {
						t.Fatalf("%s: %d/%d tasks edited (dense=%v) but fellBack=%v",
							tc.name, edits, g.NumTasks(), dense, sim.LastFellBack())
					}
					want, err := p.Simulate()
					if err != nil {
						t.Fatal(err)
					}
					assertIncrEquiv(t, p, got, want)
				})
			}
		})
	}
}

// TestIncrementalRandomDeltasAcrossZoo is the randomized property test:
// k random duration/gap edits (k ∈ {1, 4, 64}) per round, applied
// through a timing-only patch, must re-simulate bit-identically;
// rounds that add a structural patch op — or whose edits are dense
// enough to trip the performance cutoff (k=64 on the smallest zoo
// models) — must take the cold fallback and still match.
func TestIncrementalRandomDeltasAcrossZoo(t *testing.T) {
	for mi, name := range dnn.Names() {
		name := name
		rng := rand.New(rand.NewSource(int64(1000 + mi)))
		t.Run(name, func(t *testing.T) {
			g := profile(t, name, framework.PyTorch)
			sim, err := core.NewIncrementalSim(g)
			if err != nil {
				t.Fatal(err)
			}
			tasks := g.Tasks()
			buf := &core.SimResult{}
			p := core.NewPatch(g)
			for _, k := range []int{1, 4, 64} {
				for round := 0; round < 4; round++ {
					p.Reset(g)
					for i := 0; i < k; i++ {
						task := tasks[rng.Intn(len(tasks))]
						if rng.Intn(2) == 0 {
							p.SetDuration(task, time.Duration(rng.Intn(4000))*time.Microsecond)
						} else {
							p.SetGap(task, time.Duration(rng.Intn(200))*time.Microsecond)
						}
					}
					structural := round == 3
					if structural {
						nt := p.NewTask("incr-extra", tasks[0].Kind, tasks[0].Thread,
							time.Duration(rng.Intn(500))*time.Microsecond)
						p.AppendTask(nt)
					}
					edits := 0
					for _, u := range tasks {
						if p.Duration(u) != u.Duration || p.Gap(u) != u.Gap {
							edits++
						}
					}
					got, err := sim.ReSimulate(p, core.WithResultBuffer(buf))
					if err != nil {
						t.Fatal(err)
					}
					wantCold := structural || edits*8 > g.NumTasks()
					if wantCold != sim.LastFellBack() {
						t.Fatalf("k=%d round=%d: structural=%v edits=%d/%d but fellBack=%v",
							k, round, structural, edits, g.NumTasks(), sim.LastFellBack())
					}
					want, err := p.Simulate()
					if err != nil {
						t.Fatal(err)
					}
					assertIncrEquiv(t, p, got, want)
				}
			}
		})
	}
}
