package core_test

import (
	"testing"
	"time"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/whatif"
)

// BenchmarkSimulateP3Patch simulates P3's annotation patch (4×1 workers
// at 5 Gbps, 800 KB slices) over the repeated resnet50 profile. Its
// slices queue on the ps.send and ps.recv channels, so most of the
// heap loop's pops find their thread busy: the run the loop's parking
// is for.
func BenchmarkSimulateP3Patch(b *testing.B) {
	m, err := dnn.ByName("resnet50")
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
	opt := whatif.OptP3(whatif.P3Options{
		Topology:   comm.Topology{Machines: 4, GPUsPerMachine: 1, NICBandwidth: comm.Gbps(5), IntraBandwidth: 11e9, StepLatency: 15 * time.Microsecond},
		SliceBytes: whatif.P3SliceBytes(0),
	})
	rep, apply, err := core.OptBaseline(g, opt)
	if err != nil {
		b.Fatal(err)
	}
	p := core.NewPatch(rep)
	if err := apply.Apply(p); err != nil {
		b.Fatal(err)
	}
	scratch, buf := core.NewSimScratch(), &core.SimResult{}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := p.Simulate(core.WithScratch(scratch), core.WithResultBuffer(buf)); err != nil {
			b.Fatal(err)
		}
	}
}
