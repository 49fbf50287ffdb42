package core_test

import (
	"testing"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/whatif"
)

// BenchmarkPatchRebind answers AMP on four zoo baselines in turn
// through one reused patch: each op rebinds the patch to the next
// baseline, applies the edit and simulates. A rebind reads the
// baseline's memoized compiled form, so switching baselines costs no
// more than staying on one.
func BenchmarkPatchRebind(b *testing.B) {
	var bases []*core.Graph
	for _, name := range []string{"bert-large", "resnet50", "densenet121", "gnmt"} {
		m, err := dnn.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		run, err := framework.Run(framework.Config{Model: m, CollectTrace: true})
		if err != nil {
			b.Fatal(err)
		}
		g, err := core.Build(run.Trace)
		if err != nil {
			b.Fatal(err)
		}
		core.MapLayers(g, run.Trace.LayerSpans)
		bases = append(bases, g)
	}
	amp := whatif.OptAMP()
	p := core.NewPatch(bases[0])
	scratch, buf := core.NewSimScratch(), &core.SimResult{}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		p.Reset(bases[i%len(bases)])
		i++
		if err := amp.Apply(p); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Simulate(core.WithScratch(scratch), core.WithResultBuffer(buf)); err != nil {
			b.Fatal(err)
		}
	}
}
