// Quickstart: profile one training iteration, build the dependency graph,
// and ask Daydream's archetypal what-if question — "will mixed precision
// help my model?" — without implementing mixed precision, then compose it
// with a second optimization through daydream.Stack.
package main

import (
	"fmt"
	"log"

	"daydream"
)

func main() {
	// Phase 1: collect a kernel-level trace of one ResNet-50 iteration
	// (on the synthetic substrate standing in for CUPTI + PyTorch).
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "resnet50"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %s on %s: %d activities, iteration %v\n",
		tr.Model, tr.Device, len(tr.Activities), tr.IterationTime)

	// Phase 2: build the kernel-granularity dependency graph with
	// task-to-layer mapping.
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dependency graph: %d tasks, %d edges\n", g.NumTasks(), g.NumEdges())

	// Phases 3+4: ask the question as an Optimization value — AMP
	// (compute kernels 3× faster, memory-bound kernels 2×). Compare
	// picks the cheapest valid path from the value's footprint; AMP is
	// timing-only, so it evaluates clone-free through a copy-on-write
	// patch's timing deltas.
	baseline, predicted, err := daydream.Compare(g, daydream.OptAMP())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline (replayed): %v\n", baseline)
	fmt.Printf("with AMP (predicted): %v (%.1f%% faster)\n",
		predicted, 100*(1-float64(predicted)/float64(baseline)))

	// Optimizations compose: the paper evaluates stacks like AMP +
	// FusedAdam as a single what-if. A Stack of timing-only values is
	// itself timing-only and still runs clone-free.
	stacked := daydream.Stack(daydream.OptAMP(), daydream.OptFusedAdam())
	_, both, err := daydream.Compare(g, stacked)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with %s: %v (%.1f%% faster)\n",
		stacked.Name(), both, 100*(1-float64(both)/float64(baseline)))

	// Where does the time go? (The paper's Figure 6 decomposition.)
	b := daydream.ComputeBreakdown(tr)
	fmt.Printf("breakdown: CPU+GPU %v, CPU-only %v, GPU-only %v\n",
		b.Parallel, b.CPUOnly, b.GPUOnly)
}
