package daydream_test

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus micro-benchmarks of Daydream's own pipeline
// stages (trace collection, graph construction, simulation). Run with
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks execute the complete ground-truth +
// prediction pipeline that cmd/daydream-bench prints, so -bench doubles
// as a regeneration of the paper's evaluation.

import (
	"fmt"
	"testing"

	"daydream"
	"daydream/internal/core"
	"daydream/internal/exp"
	"daydream/internal/framework"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var run func() ([]*exp.Table, error)
	for _, e := range exp.All() {
		if e.ID == id {
			run = e.Run
		}
	}
	if run == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Models regenerates Table 2 (model inventory).
func BenchmarkTable2Models(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig5AMP regenerates Figure 5 (AMP baseline / ground truth /
// prediction for four models).
func BenchmarkFig5AMP(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6Breakdown regenerates Figure 6 (CPU/GPU runtime breakdown
// fp32 vs fp16).
func BenchmarkFig6Breakdown(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7FusedAdam regenerates Figure 7 (FusedAdam).
func BenchmarkFig7FusedAdam(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8Distributed regenerates Figure 8 (4 models × 19 distributed
// configurations, ground truth + prediction each).
func BenchmarkFig8Distributed(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9NCCL regenerates Figure 9 (per-reduction interference).
func BenchmarkFig9NCCL(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10P3 regenerates Figure 10 (P3 vs bandwidth, two models).
func BenchmarkFig10P3(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkSec64BatchnormRecon regenerates §6.4 (reconstructed batchnorm).
func BenchmarkSec64BatchnormRecon(b *testing.B) { benchExperiment(b, "sec6.4") }

// BenchmarkTable1Coverage exercises all ten §5 optimization models.
func BenchmarkTable1Coverage(b *testing.B) { benchExperiment(b, "table1") }

// Pipeline micro-benchmarks.

// BenchmarkCollectTrace measures the synthetic profiler on the largest
// workload (BERT-Large: ~13K activities per iteration).
func BenchmarkCollectTrace(b *testing.B) {
	m, err := daydream.ModelByName("bert-large")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := framework.Run(framework.Config{Model: m, CollectTrace: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildGraph measures dependency-graph construction plus layer
// mapping.
func BenchmarkBuildGraph(b *testing.B) {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "bert-large"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := daydream.BuildGraph(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures Algorithm 1 on a ~13K-task graph.
func BenchmarkSimulate(b *testing.B) {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "bert-large"})
	if err != nil {
		b.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.PredictIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClone measures graph deep copy (every what-if pays this once).
func BenchmarkClone(b *testing.B) {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "bert-large"})
	if err != nil {
		b.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Clone()
	}
}

// benchGraph builds the bert-large fixture shared by the scenario-path
// benchmarks.
func benchGraph(b *testing.B) *daydream.Graph {
	b.Helper()
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "bert-large"})
	if err != nil {
		b.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkScenarioOverlayPath measures one duration-only scenario
// (Algorithm-3 AMP on bert-large) through the clone-free copy-on-write
// path: reset a worker-owned patch, record the Algorithm-3 deltas in
// its timing tier, simulate through them into a reusable result buffer.
func BenchmarkScenarioOverlayPath(b *testing.B) {
	g := benchGraph(b)
	scratch := core.NewSimScratch()
	p := daydream.NewPatch(g)
	amp := daydream.OptAMP()
	buf := &daydream.SimResult{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset(g)
		if err := amp.Apply(p); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Simulate(core.WithScratch(scratch), core.WithResultBuffer(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweepWorkers pins the sweep benchmarks' worker count so their
// allocs/op (one scratch/overlay/result buffer per worker) do not vary
// with the machine's GOMAXPROCS.
const benchSweepWorkers = 4

// BenchmarkSweepOverlay64 measures sweep throughput for 64 duration-only
// scenarios on the clone-free path (scenarios/sec is ns/op⁻¹ × 64).
func BenchmarkSweepOverlay64(b *testing.B) {
	g := benchGraph(b)
	scenarios := make([]daydream.Scenario, 64)
	for i := range scenarios {
		scenarios[i] = daydream.Scenario{Name: fmt.Sprintf("amp%d", i), Opt: daydream.OptAMP()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := daydream.Sweep(g, scenarios, daydream.SweepWorkers(benchSweepWorkers)); err != nil {
			b.Fatal(err)
		}
	}
}
