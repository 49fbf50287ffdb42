package mem_test

// Memory-timeline suite: the profile is a pure post-pass (SimResult
// bit-unchanged on every tier), the timeline balances back to the
// resident baseline (every alloc has a matching free), the simulated
// peak never exceeds the static dnn.EstimateMemory upper bound, the
// profile is bit-identical whether computed over a clone-free Patch or
// its materialized clone, the memory what-ifs (vDNN, Gist) report real
// savings on bert-large, and MaxBatchFit inverts the peak curve.

import (
	"reflect"
	"testing"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/mem"
	"daydream/internal/trace"
	"daydream/internal/whatif"
)

// profile builds a mapped baseline graph for a zoo model.
func profile(t *testing.T, name string) *core.Graph {
	t.Helper()
	m, err := dnn.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := framework.Run(framework.Config{Model: m, Dialect: framework.PyTorch, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	core.MapLayers(g, res.Trace.LayerSpans)
	return g
}

// assertResultUnchanged verifies a SimResult against a pre-post-pass
// snapshot of its makespan and start times.
func assertResultUnchanged(t *testing.T, res *core.SimResult, makespan int64, starts []int64) {
	t.Helper()
	if int64(res.Makespan) != makespan {
		t.Fatalf("post-pass changed makespan: %d != %d", res.Makespan, makespan)
	}
	for id, s := range starts {
		if int64(res.Start[id]) != s {
			t.Fatalf("post-pass changed start of task %d: %d != %d", id, res.Start[id], s)
		}
	}
}

func startsOf(res *core.SimResult) []int64 {
	out := make([]int64, len(res.Start))
	for i, s := range res.Start {
		out[i] = int64(s)
	}
	return out
}

// TestProfileInvariantsAcrossZoo checks, for every zoo model: the
// post-pass leaves the simulation result bit-identical, the timeline
// returns to the resident baseline (allocs and frees balance), the
// peak exceeds the resident floor, peak attribution is populated, and
// the simulated peak stays under the static estimate (which adds
// optimizer state and workspace the timeline deliberately excludes).
func TestProfileInvariantsAcrossZoo(t *testing.T) {
	for _, name := range dnn.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := dnn.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g := profile(t, name)
			res, err := g.Simulate()
			if err != nil {
				t.Fatal(err)
			}
			makespan, starts := int64(res.Makespan), startsOf(res)

			ann, err := mem.AnnotationOf(g)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := mem.ComputeProfile(g, res, ann)
			if err != nil {
				t.Fatal(err)
			}
			assertResultUnchanged(t, res, makespan, starts)

			d := prof.Device(mem.DeviceGPU)
			if d == nil {
				t.Fatalf("no %s profile", mem.DeviceGPU)
			}
			if len(d.Timeline) == 0 {
				t.Fatal("empty timeline")
			}
			if last := d.Timeline[len(d.Timeline)-1]; last.Bytes != d.Resident {
				t.Fatalf("timeline does not balance: final sample %d bytes, resident %d", last.Bytes, d.Resident)
			}
			if d.Peak <= d.Resident {
				t.Fatalf("peak %d not above resident %d: no activation ever tracked", d.Peak, d.Resident)
			}
			if len(d.PeakTensors) == 0 {
				t.Fatal("no peak attribution")
			}
			for i := 1; i < len(d.PeakTensors); i++ {
				if d.PeakTensors[i].Bytes > d.PeakTensors[i-1].Bytes {
					t.Fatal("peak tensors not sorted largest-first")
				}
			}
			if est := dnn.EstimateMemory(m).Total(); d.Peak > est {
				t.Fatalf("simulated peak %d exceeds static estimate %d", d.Peak, est)
			}
			if d.PeakEnd <= d.PeakStart {
				t.Fatalf("degenerate peak interval [%v, %v)", d.PeakStart, d.PeakEnd)
			}
		})
	}
}

// TestProfilePostPassAcrossTiers runs the same unedited baseline
// through all five simulation tiers — cold, overlay, patch, scheduled,
// incremental — and checks the post-pass (a) never mutates any tier's
// result and (b) produces the identical profile wherever the schedule
// is identical.
func TestProfilePostPassAcrossTiers(t *testing.T) {
	g := profile(t, "resnet50")
	ann, err := mem.AnnotationOf(g)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.ComputeProfile(g, cold, ann)
	if err != nil {
		t.Fatal(err)
	}

	inc, err := core.NewIncrementalSim(g)
	if err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		name     string
		view     core.TaskView
		simulate func() (*core.SimResult, error)
		samePlan bool // default scheduler, unedited → profile must equal cold's
	}{
		{"cold", g, func() (*core.SimResult, error) { return g.Simulate() }, true},
		{"overlay", timingNoop(g), nil, true},
		{"patch", core.NewPatch(g), nil, true},
		{"scheduled", g, func() (*core.SimResult, error) {
			return g.Simulate(core.WithScheduler(whatif.VDNNScheduler{}))
		}, false},
		{"incremental", g, func() (*core.SimResult, error) { return inc.ReSimulate(core.NewPatch(g)) }, true},
	}
	for _, tier := range tiers {
		tier := tier
		t.Run(tier.name, func(t *testing.T) {
			var res *core.SimResult
			var err error
			if v, ok := tier.view.(*core.Patch); ok {
				res, err = v.Simulate()
			} else {
				res, err = tier.simulate()
			}
			if err != nil {
				t.Fatal(err)
			}
			makespan, starts := int64(res.Makespan), startsOf(res)
			prof, err := mem.ComputeProfile(tier.view, res, ann)
			if err != nil {
				t.Fatal(err)
			}
			assertResultUnchanged(t, res, makespan, starts)
			if tier.samePlan && !reflect.DeepEqual(prof, want) {
				t.Fatalf("%s profile diverges from cold profile", tier.name)
			}
		})
	}
}

// timingNoop returns a patch over g whose timing tier holds an edit that
// changes nothing: the sweep's overlay tier for an unedited plan.
func timingNoop(g *core.Graph) *core.Patch {
	p := core.NewPatch(g)
	u := g.Tasks()[0]
	p.SetDuration(u, u.Duration)
	return p
}

// TestProfileCloneVsPatchBitIdentity is the acceptance criterion: for a
// structural memory what-if, the profile computed clone-free over the
// Patch must be bit-identical to the profile computed over the
// materialized clone — same base annotation, same carried scheduler,
// same measurers.
func TestProfileCloneVsPatchBitIdentity(t *testing.T) {
	g := profile(t, "resnet50")
	ann, err := mem.AnnotationOf(g)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  core.Optimization
	}{
		{"vdnn", whatif.OptVDNN(whatif.VDNNOptions{})},
		{"gist", whatif.OptGist(whatif.GistOptions{})},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := core.NewPatch(g)
			if err := tc.opt.Apply(p); err != nil {
				t.Fatal(err)
			}
			var simOpts []core.SimOption
			if sched := core.OptScheduler(tc.opt); sched != nil {
				simOpts = append(simOpts, core.WithScheduler(sched))
			}
			resP, err := p.Simulate(simOpts...)
			if err != nil {
				t.Fatal(err)
			}
			measurers := mem.MeasurersOf(tc.opt)
			profP, err := mem.ComputeProfile(p, resP, ann, measurers...)
			if err != nil {
				t.Fatal(err)
			}

			mg, err := p.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			resC, err := mg.Simulate(simOpts...)
			if err != nil {
				t.Fatal(err)
			}
			profC, err := mem.ComputeProfile(mg, resC, ann, measurers...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(profP, profC) {
				t.Fatalf("patch profile diverges from materialized-clone profile:\npatch peak %d [%v,%v)\nclone peak %d [%v,%v)",
					profP.Peak(mem.DeviceGPU), profP.Device(mem.DeviceGPU).PeakStart, profP.Device(mem.DeviceGPU).PeakEnd,
					profC.Peak(mem.DeviceGPU), profC.Device(mem.DeviceGPU).PeakStart, profC.Device(mem.DeviceGPU).PeakEnd)
			}
		})
	}
}

// TestMemoryWhatIfsSaveOnBERTLarge checks the fig-10 story end to end:
// on bert-large (no conv, no relu — the registry defaults match
// nothing, so the filters must be widened), vDNN-all and lossy Gist
// both cut the simulated peak below the baseline while costing
// makespan.
func TestMemoryWhatIfsSaveOnBERTLarge(t *testing.T) {
	g := profile(t, "bert-large")
	baseMakespan, baseProf, err := mem.ProfileOpt(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	basePeak := baseProf.MaxPeak()

	cases := []struct {
		name string
		opt  core.Optimization
	}{
		{"vdnn-all", whatif.OptVDNN(whatif.VDNNOptions{
			OffloadLayer: func(gr trace.GradientInfo) bool { return gr.ActBytes > 0 },
		})},
		{"gist-lossy", whatif.OptGist(whatif.GistOptions{Lossy: true})},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			makespan, prof, err := mem.ProfileOpt(g, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			peak := prof.MaxPeak()
			if peak >= basePeak {
				t.Fatalf("no memory savings: peak %d, baseline %d", peak, basePeak)
			}
			if makespan < baseMakespan {
				t.Fatalf("memory optimization sped up the iteration: %v < baseline %v", makespan, baseMakespan)
			}
			t.Logf("%s: peak %d → %d (saves %.1f%%), makespan %v → %v",
				tc.name, basePeak, peak, 100*float64(basePeak-peak)/float64(basePeak), baseMakespan, makespan)
		})
	}
}

// TestMaxBatchFit calibrates a capacity from the simulated peak at
// batch 4 and checks the search inverts it exactly; an impossible
// capacity returns 0.
func TestMaxBatchFit(t *testing.T) {
	build := func(batch int) (*core.Graph, error) {
		res, err := framework.Run(framework.Config{
			Model: dnn.ResNet50(batch), Dialect: framework.PyTorch, CollectTrace: true,
		})
		if err != nil {
			return nil, err
		}
		g, err := core.Build(res.Trace)
		if err != nil {
			return nil, err
		}
		core.MapLayers(g, res.Trace.LayerSpans)
		return g, nil
	}
	peak4, err := mem.PeakAtBatch(build, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if peak4 <= 0 {
		t.Fatalf("no peak at batch 4")
	}
	fit, err := mem.MaxBatchFit(peak4, build, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	if fit != 4 {
		t.Fatalf("capacity calibrated to the batch-4 peak must fit exactly 4, got %d", fit)
	}
	peak1, err := mem.PeakAtBatch(build, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fit, err = mem.MaxBatchFit(peak1-1, build, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	if fit != 0 {
		t.Fatalf("sub-batch-1 capacity must fit 0, got %d", fit)
	}
	if _, err := mem.MaxBatchFit(0, build, nil, 6); err == nil {
		t.Fatal("zero capacity must error")
	}
	if _, err := mem.MaxBatchFit(1, nil, nil, 6); err == nil {
		t.Fatal("nil build must error")
	}
}

// TestAnnotateRejectsUnmappedGraph: a graph without layer metadata
// cannot carry a timeline, and says so.
func TestAnnotateRejectsUnmappedGraph(t *testing.T) {
	m, err := dnn.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	res, err := framework.Run(framework.Config{Model: m, Dialect: framework.PyTorch, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	// No MapLayers: Meta.Gradients stays empty.
	if _, err := mem.Annotate(g); err == nil {
		t.Fatal("Annotate accepted a graph with no layer metadata")
	}
}

// TestAnnotationMemoInvalidation: structural mutation drops the memo so
// a stale tensor schedule can never leak into a profile.
func TestAnnotationMemoInvalidation(t *testing.T) {
	g := profile(t, "resnet50")
	a1, err := mem.AnnotationOf(g)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := mem.AnnotationOf(g)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("AnnotationOf did not memoize")
	}
	g.NewTask("probe", trace.KindKernel, core.CPU(0), 0)
	a3, err := mem.AnnotationOf(g)
	if err != nil {
		t.Fatal(err)
	}
	if a3 == a1 {
		t.Fatal("structural mutation did not invalidate the annotation memo")
	}
	// A clone must not inherit the memo pointer (it may diverge).
	c := g.Clone()
	if c.MemAnnotation() != nil {
		t.Fatal("clone inherited the memory-annotation memo")
	}
}
