// Custom what-ifs: user code extends the system with its own
// daydream.Optimization values — the same first-class type the built-in
// models use — so custom questions compose with the built-ins through
// Stack, Compare and Sweep. This example asks three questions the
// paper's introduction poses:
//
//  1. "Why did my DNN training workload run slowly?" — find the dominant
//     kernels.
//  2. "How much would a 2× faster CPU help?" — a custom timing-only
//     optimization (shrink every CPU task and every inter-task gap),
//     evaluated clone-free and stacked under AMP.
//  3. "What if all element-wise kernels were fused away?" — a custom
//     structural optimization built on the Remove primitive through the
//     unified Patch surface, so even graph surgery evaluates clone-free.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"daydream"
)

func main() {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "bert-base"})
	if err != nil {
		log.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		log.Fatal(err)
	}
	baseline, err := g.PredictIteration()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s baseline iteration: %v\n\n", tr.Model, baseline)

	// 1. Where does GPU time go?
	byName := map[string]time.Duration{}
	for _, t := range g.Select(func(t *daydream.Task) bool { return t.OnGPU() }) {
		byName[t.Name] += t.Duration
	}
	type kv struct {
		name string
		d    time.Duration
	}
	var top []kv
	for n, d := range byName {
		top = append(top, kv{n, d})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].d > top[j].d })
	fmt.Println("top GPU kernels:")
	for _, e := range top[:5] {
		fmt.Printf("  %-45s %v\n", e.name, e.d)
	}

	// 2. What if the CPU were 2× faster? A custom timing-only
	// optimization: it edits durations and gaps through the patch, so
	// Compare evaluates it clone-free — and it composes with the
	// built-in AMP value like any registry optimization.
	cpu2x := daydream.PatchOptimization("cpu2x", daydream.TimingOnly, func(p *daydream.Patch) error {
		for _, t := range p.Base().Tasks() {
			if t.OnCPU() {
				p.SetDuration(t, p.Duration(t)/2)
				p.SetGap(t, p.Gap(t)/2)
			}
		}
		return nil
	})
	report := func(opt daydream.Optimization) {
		_, pred, err := daydream.Compare(g, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %v (%.1f%% faster)\n",
			opt.Name()+":", pred, 100*(1-float64(pred)/float64(baseline)))
	}
	fmt.Println()
	report(cpu2x)
	report(daydream.Stack(cpu2x, daydream.OptAMP()))

	// 3. What if every element-wise kernel were fused into its producer?
	// Structural — but still clone-free: the kernels and the launches
	// that trigger them are removed as copy-on-write patch deltas over
	// the shared baseline; every built-in structural what-if is written
	// the same way.
	fused := daydream.PatchOptimization("fuse-pointwise", daydream.Structural,
		func(p *daydream.Patch) error {
			for _, t := range p.Base().Select(func(t *daydream.Task) bool {
				return t.OnGPU() && strings.Contains(t.Name, "elementwise")
			}) {
				if peer := t.Peer(); peer != nil {
					p.RemoveTask(peer)
				}
				p.RemoveTask(t)
			}
			return nil
		})
	report(fused)
}
