package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"daydream/internal/trace"
)

// optTestGraph builds a small two-thread graph for optimization tests.
func optTestGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := NewGraph()
	for i := 0; i < n; i++ {
		launch := g.NewTask("cudaLaunchKernel", trace.KindLaunch, CPU(1), 2*time.Microsecond)
		g.AppendTask(launch)
		kern := g.NewTask(fmt.Sprintf("k%d", i), trace.KindKernel, Stream(7), 10*time.Microsecond)
		g.AppendTask(kern)
		if err := g.Correlate(launch, kern); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// halveGPU is a timing-only test optimization.
func halveGPU() Optimization {
	return PatchOpt("halve-gpu", TimingOnly, func(p *Patch) error {
		o := p.Timing()
		for _, u := range o.Base().Tasks() {
			if u.OnGPU() {
				o.SetDuration(u, o.Duration(u)/2)
			}
		}
		return nil
	}, nil)
}

// dropFirstKernel is a patch-form structural test optimization.
func dropFirstKernel() Optimization {
	return PatchOpt("drop-first-kernel", Structural, func(p *Patch) error {
		for _, u := range p.Base().Tasks() {
			if u.OnGPU() {
				p.RemoveTask(u)
				return nil
			}
		}
		return fmt.Errorf("no GPU task")
	}, nil)
}

func TestOptFootprintString(t *testing.T) {
	if TimingOnly.String() != "timing-only" || Structural.String() != "structural" {
		t.Fatalf("footprint strings: %q, %q", TimingOnly, Structural)
	}
}

func TestTimingOnlyOptAppliesThroughPatch(t *testing.T) {
	g := optTestGraph(t, 6)
	opt := halveGPU()
	if opt.Footprint() != TimingOnly {
		t.Fatalf("footprint = %v", opt.Footprint())
	}
	if OptNeedsGraph(opt) {
		t.Fatal("timing-only optimization demands a materialized graph")
	}

	p := NewPatch(g)
	if err := opt.Apply(p); err != nil {
		t.Fatal(err)
	}
	if p.Structural() {
		t.Fatal("timing-only Apply recorded structural deltas")
	}
	want, err := p.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}

	// ApplyOptimization materializes the same timing edits into a
	// private graph.
	c, err := ApplyOptimization(g.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("materialized path %v, patch path %v", got, want)
	}
	for _, u := range c.Tasks() {
		if u.OnGPU() && u.Duration != 5*time.Microsecond {
			t.Fatalf("ApplyOptimization did not write back: %v", u)
		}
	}
	// The baseline is untouched by every path.
	for _, u := range g.Tasks() {
		if u.OnGPU() && u.Duration != 10*time.Microsecond {
			t.Fatalf("baseline mutated: %v", u)
		}
	}
}

func TestPatchOptAppliesStructurally(t *testing.T) {
	g := optTestGraph(t, 4)
	opt := dropFirstKernel()
	if opt.Footprint() != Structural {
		t.Fatalf("footprint = %v", opt.Footprint())
	}
	if OptNeedsGraph(opt) {
		t.Fatal("patch-form structural optimization demands a materialized graph")
	}

	// Patch path.
	p := NewPatch(g)
	if err := opt.Apply(p); err != nil {
		t.Fatal(err)
	}
	if !p.Structural() {
		t.Fatal("structural Apply recorded no structural deltas")
	}
	want, err := p.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}

	// ApplyOptimization materializes the same deltas in place.
	c, err := ApplyOptimization(g.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTasks() != g.NumTasks()-1 {
		t.Fatalf("materialization removed %d tasks, want 1", g.NumTasks()-c.NumTasks())
	}
	got, err := c.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("materialized path %v, patch path %v", got, want)
	}
}

func TestStructuralOptNeedsGraph(t *testing.T) {
	opt := StructuralOpt("drop-all", func(g *Graph) error { return nil })
	if opt.Footprint() != Structural {
		t.Fatalf("footprint = %v", opt.Footprint())
	}
	if !OptNeedsGraph(opt) {
		t.Fatal("in-place transform does not demand a materialized graph")
	}
	if err := opt.Apply(NewPatch(optTestGraph(t, 1))); err == nil {
		t.Fatal("in-place transform applied through a patch")
	}
	// ApplyOptimization runs the func in place on the private graph.
	g := optTestGraph(t, 1)
	if got, err := ApplyOptimization(g, opt); err != nil || got != g {
		t.Fatalf("ApplyOptimization = %p, %v; want the graph itself", got, err)
	}
}

func TestStackFootprintAndName(t *testing.T) {
	timing := halveGPU()
	structural := StructuralOpt("surgery", func(g *Graph) error { return nil })

	if fp := Stack(timing, timing).Footprint(); fp != TimingOnly {
		t.Fatalf("timing-only stack footprint = %v", fp)
	}
	if fp := Stack(timing, structural).Footprint(); fp != Structural {
		t.Fatalf("mixed stack footprint = %v", fp)
	}
	if name := Stack(timing, structural).Name(); name != "halve-gpu+surgery" {
		t.Fatalf("stack name = %q", name)
	}
	// Nested stacks flatten; nil parts drop.
	nested := Stack(Stack(timing, nil), structural)
	if name := nested.Name(); name != "halve-gpu+surgery" {
		t.Fatalf("flattened stack name = %q", name)
	}
	// A stack of patch-capable parts does not demand a graph; one
	// in-place part moves the whole stack to the clone path.
	if OptNeedsGraph(Stack(timing, dropFirstKernel())) {
		t.Fatal("patch-capable stack demands a materialized graph")
	}
	if !OptNeedsGraph(Stack(timing, structural)) {
		t.Fatal("stack with an in-place part does not demand a materialized graph")
	}
}

func TestEmptyStackIsNoop(t *testing.T) {
	empty := Stack()
	if !OptIsNoop(empty) {
		t.Fatal("empty stack not a no-op")
	}
	if OptIsNoop(halveGPU()) || OptIsNoop(Stack(halveGPU())) {
		t.Fatal("non-empty optimization reported as no-op")
	}
	if !OptIsNoop(nil) {
		t.Fatal("nil optimization not a no-op")
	}
	if empty.Name() != "baseline" {
		t.Fatalf("empty stack name = %q", empty.Name())
	}
	// Applying the no-op changes nothing on either path.
	g := optTestGraph(t, 3)
	want, _ := g.PredictIteration()
	p := NewPatch(g)
	if err := empty.Apply(p); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.PredictIteration(); got != want {
		t.Fatalf("no-op patch changed prediction: %v vs %v", got, want)
	}
	c, err := ApplyOptimization(g.Clone(), empty)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c.PredictIteration(); got != want {
		t.Fatalf("no-op ApplyOptimization changed prediction: %v vs %v", got, want)
	}
}

func TestStackAppliesInOrder(t *testing.T) {
	var order []string
	mk := func(name string) Optimization {
		return PatchOpt(name, TimingOnly, func(*Patch) error {
			order = append(order, name)
			return nil
		}, nil)
	}
	s := Stack(mk("a"), mk("b"), mk("c"))
	if err := s.Apply(NewPatch(optTestGraph(t, 1))); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, "") != "abc" {
		t.Fatalf("application order = %v", order)
	}
}

// TestStackMixesTimingAndPatchParts checks a stack of a timing-only and
// a patch-form structural part applies through ONE patch, and predicts
// identically to the sequential clone application.
func TestStackMixesTimingAndPatchParts(t *testing.T) {
	g := optTestGraph(t, 6)
	s := Stack(halveGPU(), dropFirstKernel())
	if OptNeedsGraph(s) {
		t.Fatal("mixed patch-capable stack demands a materialized graph")
	}
	p := NewPatch(g)
	if err := s.Apply(p); err != nil {
		t.Fatal(err)
	}
	got, err := p.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	c, err := ApplyOptimization(g.Clone(), halveGPU())
	if err != nil {
		t.Fatal(err)
	}
	if c, err = ApplyOptimization(c, dropFirstKernel()); err != nil {
		t.Fatal(err)
	}
	want, err := c.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("mixed stack via one patch %v, sequential clone %v", got, want)
	}
}

func TestRewriteOptAndStackRewrite(t *testing.T) {
	g := optTestGraph(t, 4)
	repeat := RewriteOpt("repeat2",
		func(c *Graph) (*Graph, error) { return c.Repeat(2) },
		func(v TaskView, res *SimResult) (time.Duration, error) {
			return RoundSpan(v, res, 1) - RoundSpan(v, res, 0), nil
		})
	if repeat.Footprint() != Structural {
		t.Fatalf("rewriter footprint = %v", repeat.Footprint())
	}
	if !OptNeedsGraph(repeat) {
		t.Fatal("rewriter does not demand a materialized graph")
	}
	if err := repeat.Apply(NewPatch(g)); err == nil {
		t.Fatal("rewriter applied through a patch")
	}
	if OptMeasure(repeat) == nil {
		t.Fatal("rewriter lost its measure")
	}

	// ApplyOptimization routes through RewriteGraph.
	rg, err := ApplyOptimization(g.Clone(), repeat)
	if err != nil {
		t.Fatal(err)
	}
	if rg.NumTasks() != 2*g.NumTasks() {
		t.Fatalf("rewritten graph has %d tasks, want %d", rg.NumTasks(), 2*g.NumTasks())
	}

	// A stack mixing patch-form and rewriting parts threads the graph
	// through, keeps the rewriter's measure, and refuses the patch path.
	mixed := Stack(halveGPU(), repeat)
	if err := mixed.Apply(NewPatch(g)); err == nil {
		t.Fatal("stack with a rewriter applied through a patch")
	}
	if OptMeasure(mixed) == nil {
		t.Fatal("stack lost the rewriter's measure")
	}
	mg, err := ApplyOptimization(g.Clone(), mixed)
	if err != nil {
		t.Fatal(err)
	}
	if mg.NumTasks() != 2*g.NumTasks() {
		t.Fatalf("mixed-stack graph has %d tasks, want %d", mg.NumTasks(), 2*g.NumTasks())
	}
}

func TestStackPatchRejectsGraphPart(t *testing.T) {
	s := Stack(halveGPU(), StructuralOpt("surgery", func(g *Graph) error { return nil }))
	if err := s.Apply(NewPatch(optTestGraph(t, 1))); err == nil {
		t.Fatal("stack with an in-place part applied through a patch")
	}
	// ApplyOptimization threads a private graph through both parts.
	if _, err := ApplyOptimization(optTestGraph(t, 1), s); err != nil {
		t.Fatal(err)
	}
}
