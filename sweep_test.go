package daydream_test

import (
	"testing"

	"daydream"
	"daydream/internal/core"
	"daydream/internal/exp"
	"daydream/internal/sweep"
)

// fig8Predictions builds the Figure-8 prediction grid (19 distributed
// configurations) over one model's single-GPU profile.
func fig8Predictions(tb testing.TB, zoo string) (*daydream.Graph, []daydream.Scenario) {
	tb.Helper()
	tr, err := daydream.Collect(daydream.CollectConfig{Model: zoo})
	if err != nil {
		tb.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		tb.Fatal(err)
	}
	var scenarios []daydream.Scenario
	for _, topo := range exp.Fig8Grid() {
		scenarios = append(scenarios, exp.Fig8Scenario(g, topo))
	}
	return g, scenarios
}

// runSequential evaluates the scenarios one by one, without the sweep's
// worker state: record the what-if on a fresh patch over
// core.OptBaseline's graph, materialize it into a private graph and
// cold-simulate that, no scratch reuse. The sweep's patch and overlay
// dispatch is thereby checked against a mutated copy.
func runSequential(tb testing.TB, scenarios []daydream.Scenario) []daydream.SweepResult {
	tb.Helper()
	out := make([]daydream.SweepResult, len(scenarios))
	for i, sc := range scenarios {
		g := sc.Base
		if sc.Opt != nil {
			var (
				apply core.Optimization
				err   error
			)
			if g, apply, err = core.OptBaseline(g, sc.Opt); err != nil {
				tb.Fatal(err)
			}
			p := core.NewPatch(g)
			if err := apply.Apply(p); err != nil {
				tb.Fatal(err)
			}
			if g, err = p.Materialize(); err != nil {
				tb.Fatal(err)
			}
		}
		v, err := g.PredictIteration()
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = daydream.SweepResult{Name: sc.Name, Value: v}
	}
	return out
}

// TestSweepMatchesSequentialFig8 checks the acceptance property of the
// sweep subsystem: a Figure-8-sized grid produces bit-identical
// predictions through daydream.Sweep — at any worker count — as through
// the sequential loop it replaces.
func TestSweepMatchesSequentialFig8(t *testing.T) {
	_, scenarios := fig8Predictions(t, "bert-base")
	want := runSequential(t, scenarios)
	for _, workers := range []int{0, 1, 3, 8} {
		got, err := daydream.Sweep(nil, scenarios, daydream.SweepWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Value != want[i].Value {
				t.Fatalf("workers=%d: scenario %q predicts %v, sequential loop %v",
					workers, got[i].Name, got[i].Value, want[i].Value)
			}
		}
	}
}

// fullFig8Scenarios is the paper's complete Figure 8: 4 models × 19
// distributed configurations = 76 scenarios, each over its model's
// single-GPU profile.
func fullFig8Scenarios(tb testing.TB) []daydream.Scenario {
	tb.Helper()
	var scenarios []daydream.Scenario
	for _, zoo := range []string{"resnet50", "gnmt", "bert-base", "bert-large"} {
		_, scs := fig8Predictions(tb, zoo)
		scenarios = append(scenarios, scs...)
	}
	return scenarios
}

// BenchmarkFig8SweepPredictions measures the 76-scenario Figure-8
// prediction grid through the concurrent sweep (worker pool + per-worker
// simulation scratch). Compare against BenchmarkFig8SequentialPredictions
// for the wall-clock effect; on multi-core hardware the pool wins by
// roughly the core count, and even single-core it wins on allocation.
func BenchmarkFig8SweepPredictions(b *testing.B) {
	scenarios := fullFig8Scenarios(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := daydream.Sweep(nil, scenarios); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8SequentialPredictions is the seed-style sequential loop
// over the identical 76 scenarios.
func BenchmarkFig8SequentialPredictions(b *testing.B) {
	scenarios := fullFig8Scenarios(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = runSequential(b, scenarios)
	}
}

// TestSweepReexports pins the top-level aliases to the internal sweep
// package, so the public API and the harness cannot drift apart.
func TestSweepReexports(t *testing.T) {
	var _ daydream.Scenario = sweep.Scenario{}
	var _ daydream.SweepResult = sweep.Result{}
	g, scenarios := fig8Predictions(t, "resnet50")
	results, err := daydream.Sweep(g, scenarios[:3],
		daydream.SweepWorkers(2), daydream.SweepKeepGraphs(), daydream.SweepKeepSims())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Graph == nil || r.Sim == nil || r.Value <= 0 {
			t.Fatalf("retention options ignored: %+v", r)
		}
	}
}
