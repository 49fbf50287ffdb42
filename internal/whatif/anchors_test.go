package whatif

import (
	"fmt"
	"testing"
	"time"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/trace"
)

// zooGraph builds a mapped baseline graph for a zoo model.
func zooGraph(tb testing.TB, name string) *core.Graph {
	tb.Helper()
	m, err := dnn.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := framework.Run(framework.Config{Model: m, Dialect: framework.PyTorch, CollectTrace: true})
	if err != nil {
		tb.Fatal(err)
	}
	g, err := core.Build(res.Trace)
	if err != nil {
		tb.Fatal(err)
	}
	core.MapLayers(g, res.Trace.LayerSpans)
	return g
}

// refLastFwdGPUTask is the reference linear scan for the layer's last
// forward GPU task live in the view.
func refLastFwdGPUTask(v core.TaskView, layerIndex int) *core.Task {
	var best *core.Task
	for _, t := range v.Tasks() {
		if !t.OnGPU() || !t.HasLayer || t.Phase != trace.Forward || t.LayerIndex != layerIndex {
			continue
		}
		if best == nil || t.TracedStart > best.TracedStart {
			best = t
		}
	}
	return best
}

// refFirstBwdGPUTask is the reference linear scan for the layer's first
// backward GPU task live in the view.
func refFirstBwdGPUTask(v core.TaskView, layerIndex int) *core.Task {
	var best *core.Task
	for _, t := range v.Tasks() {
		if !t.OnGPU() || !t.HasLayer || t.Phase != trace.Backward || t.LayerIndex != layerIndex {
			continue
		}
		if best == nil || t.TracedStart < best.TracedStart {
			best = t
		}
	}
	return best
}

// checkAnchors compares the one-pass table against the linear scans for
// every mapped layer of the view, and expects nil just outside it.
func checkAnchors(t *testing.T, v core.TaskView) {
	t.Helper()
	span := 0
	for _, tk := range v.Tasks() {
		if tk.HasLayer && tk.LayerIndex >= span {
			span = tk.LayerIndex + 1
		}
	}
	if span == 0 {
		t.Fatal("view has no mapped layers")
	}
	a := scanLayerAnchors(v, span)
	found := 0
	for li := 0; li < span; li++ {
		if got, want := a.lastFwd(li), refLastFwdGPUTask(v, li); got != want {
			t.Fatalf("layer %d: last forward GPU task %v, linear scan %v", li, got, want)
		}
		if got, want := a.firstBwd(li), refFirstBwdGPUTask(v, li); got != want {
			t.Fatalf("layer %d: first backward GPU task %v, linear scan %v", li, got, want)
		}
		if a.lastFwd(li) != nil {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no layer has a forward GPU anchor")
	}
	for _, li := range []int{-1, span} {
		if a.lastFwd(li) != nil || a.firstBwd(li) != nil {
			t.Fatalf("layer %d outside the table has an anchor", li)
		}
	}
}

func TestLayerAnchorsMatchLinearScans(t *testing.T) {
	for _, name := range dnn.Names() {
		t.Run(name, func(t *testing.T) {
			g := zooGraph(t, name)
			if core.MappedFraction(g) == 0 {
				t.Skip("no layer mapping")
			}
			views := []struct {
				name  string
				apply func(*core.Patch) error
			}{
				{"fresh", func(*core.Patch) error { return nil }},
				{"reconbn-removal", func(p *core.Patch) error {
					return ReconBatchnormPatch(p, ReconBatchnormOptions{})
				}},
				{"gist", func(p *core.Patch) error { return GistPatch(p, GistOptions{Lossy: true}) }},
			}
			for _, vc := range views {
				t.Run(vc.name, func(t *testing.T) {
					p := core.NewPatch(g)
					if err := vc.apply(p); err != nil {
						t.Fatal(err)
					}
					checkAnchors(t, p)
				})
			}
		})
	}
}

// TestLayerAnchorsTies pins tie-breaking on a hand-built graph whose
// layers have several GPU tasks at the same TracedStart, over the graph
// itself and over a patch that removes a tied task and appends tasks at
// TracedStart 0.
func TestLayerAnchorsTies(t *testing.T) {
	b := core.NewPatch(core.NewGraph())
	add := func(layer int, phase trace.Phase, stream int, start time.Duration) *core.Task {
		tk := b.NewTask(fmt.Sprintf("k%d", b.NumTasks()), trace.KindKernel, core.Stream(stream), time.Microsecond)
		tk.Layer, tk.LayerIndex, tk.Phase, tk.HasLayer = fmt.Sprintf("l%d", layer), layer, phase, true
		tk.TracedStart = start
		b.AppendTask(tk)
		return tk
	}
	const us = time.Microsecond
	for li := 0; li < 4; li++ {
		for stream := 0; stream < 2; stream++ {
			add(li, trace.Forward, stream, time.Duration(10*li+5)*us)
			add(li, trace.Forward, stream, time.Duration(10*li+5)*us)
			add(li, trace.Backward, stream, time.Duration(100-10*li)*us)
			add(li, trace.Backward, stream, time.Duration(100-10*li)*us)
		}
	}
	// A CPU task and an unmapped GPU task never anchor.
	cpu := b.NewTask("launch", trace.KindLaunch, core.ThreadID{Kind: core.CPUThread}, us)
	cpu.LayerIndex, cpu.Phase, cpu.HasLayer = 1, trace.Forward, true
	cpu.TracedStart = time.Hour
	b.AppendTask(cpu)
	b.AppendTask(b.NewTask("unmapped", trace.KindKernel, core.Stream(0), us))
	g, err := b.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	checkAnchors(t, g)

	p := core.NewPatch(g)
	p.RemoveTask(refLastFwdGPUTask(p, 2))
	for li := 0; li < 4; li++ {
		for _, ph := range []trace.Phase{trace.Forward, trace.Backward} {
			tk := p.NewTask("appendix", trace.KindKernel, core.Stream(1), us)
			tk.LayerIndex, tk.Phase, tk.HasLayer = li, ph, true
			p.AppendTask(tk)
		}
	}
	checkAnchors(t, p)
	if a := scanLayerAnchors(p, 4); a.firstBwd(0).Name != "appendix" {
		t.Fatalf("appendix task at TracedStart 0 should be layer 0's first backward anchor, got %v", a.firstBwd(0))
	}
}

// countingView counts Tasks calls on the view it wraps.
type countingView struct {
	core.TaskView
	calls int
}

func (v *countingView) Tasks() []*core.Task {
	v.calls++
	return v.TaskView.Tasks()
}

// TestAnchorScanOncePerApply guards the complexity of vDNN and Gist: one
// pass over the view per application, however many layers the model has.
func TestAnchorScanOncePerApply(t *testing.T) {
	for _, name := range []string{"vgg19", "densenet121"} {
		g := zooGraph(t, name)
		cases := []struct {
			name  string
			apply func(v core.TaskView, p *core.Patch) error
		}{
			{"vdnn", func(v core.TaskView, p *core.Patch) error { return vdnnInto(p, v, VDNNOptions{}) }},
			{"gist", func(v core.TaskView, p *core.Patch) error { return gistInto(p, v, GistOptions{Lossy: true}) }},
		}
		for _, tc := range cases {
			p := core.NewPatch(g)
			v := &countingView{TaskView: p}
			if err := tc.apply(v, p); err != nil {
				t.Fatalf("%s/%s: %v", name, tc.name, err)
			}
			if v.calls != 1 {
				t.Fatalf("%s/%s: %d Tasks calls per apply over %d layers, want 1",
					name, tc.name, v.calls, len(g.Meta.Gradients))
			}
		}
	}
}

func benchmarkApply(b *testing.B, opt core.Optimization) {
	g := zooGraph(b, "densenet121")
	p := core.NewPatch(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset(g)
		if err := opt.Apply(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVDNNApply(b *testing.B) { benchmarkApply(b, OptVDNN(VDNNOptions{})) }

func BenchmarkGistApply(b *testing.B) { benchmarkApply(b, OptGist(GistOptions{})) }

// TestMeanDuration: Gist's kernel estimate averages the view's
// effective durations, so a timing edit on the patch counts.
func TestMeanDuration(t *testing.T) {
	b := core.NewPatch(core.NewGraph())
	for _, d := range []time.Duration{10, 20, 30} {
		b.AppendTask(b.NewTask("k", trace.KindKernel, core.Stream(0), d))
	}
	g, err := b.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	tasks := g.Tasks()
	if got := meanDuration(g, nil); got != 0 {
		t.Fatalf("empty mean = %v, want 0", got)
	}
	if got := meanDuration(g, tasks); got != 20 {
		t.Fatalf("mean over the graph = %v, want 20", got)
	}
	p := core.NewPatch(g)
	p.SetDuration(tasks[2], 60)
	if got := meanDuration(p, tasks); got != 30 {
		t.Fatalf("mean over the patch = %v, want 30 (the edited duration)", got)
	}
}
