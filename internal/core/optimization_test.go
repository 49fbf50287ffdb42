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
		launch := g.newTask("cudaLaunchKernel", trace.KindLaunch, CPU(1), 2*time.Microsecond)
		g.appendTask(launch)
		kern := g.newTask(fmt.Sprintf("k%d", i), trace.KindKernel, Stream(7), 10*time.Microsecond)
		g.appendTask(kern)
		if err := g.Correlate(launch, kern); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// halveGPU is a timing-only test optimization.
func halveGPU() Optimization {
	return PatchOpt("halve-gpu", TimingOnly, func(p *Patch) error {
		for _, u := range p.Base().Tasks() {
			if u.OnGPU() {
				p.SetDuration(u, p.Duration(u)/2)
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
	if OptRounds(opt) != 1 {
		t.Fatal("timing-only optimization declares several rounds")
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

	// Materialize writes the same timing edits into a private graph.
	c, err := p.Materialize()
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
			t.Fatalf("Materialize did not write back: %v", u)
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
	if base, apply, err := OptBaseline(g, opt); err != nil || base != g || apply != opt {
		t.Fatalf("OptBaseline = %p, %v; want the graph and value themselves", base, err)
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

	// Materialize replays the same deltas onto a private graph.
	c, err := p.Materialize()
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

// TestStructuralOptNeedsGraph checks that a structural value needs no
// graph of its own: its baseline is the profiled graph itself, and its
// patch leaves that graph untouched.
func TestStructuralOptNeedsGraph(t *testing.T) {
	g := optTestGraph(t, 3)
	want, err := g.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	opt := dropFirstKernel()
	if opt.Footprint() != Structural || OptRounds(opt) != 1 {
		t.Fatalf("footprint = %v, rounds = %d", opt.Footprint(), OptRounds(opt))
	}
	base, apply, err := OptBaseline(g, opt)
	if err != nil || base != g || apply != opt {
		t.Fatalf("OptBaseline = %p, %v; want the graph and value themselves", base, err)
	}
	p := NewPatch(base)
	if err := opt.Apply(p); err != nil {
		t.Fatal(err)
	}
	if p.NumTasks() != g.NumTasks()-1 {
		t.Fatalf("patch view has %d tasks, want %d", p.NumTasks(), g.NumTasks()-1)
	}
	if g.NumTasks() != 6 {
		t.Fatalf("baseline mutated: %d tasks", g.NumTasks())
	}
	if got, err := g.PredictIteration(); err != nil || got != want {
		t.Fatalf("baseline prediction %v, %v after the patch; want %v", got, err, want)
	}
}

// repeated declares n rounds on top of opt, the way P3 declares the
// iterations it chains.
type repeated struct {
	Optimization
	n int
}

func (r repeated) Rounds() int { return r.n }

func (r repeated) MeasureFunc() func(TaskView, *SimResult) (time.Duration, error) {
	return OptMeasure(r.Optimization)
}

// roundDistance measures the last round's span increment, like P3's
// steady-state metric.
func roundDistance(v TaskView, res *SimResult) (time.Duration, error) {
	return RoundSpan(v, res, 1) - RoundSpan(v, res, 0), nil
}

func TestStackFootprintAndName(t *testing.T) {
	timing := halveGPU()
	structural := PatchOpt("surgery", Structural, func(*Patch) error { return nil }, nil)

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
	// A stack declares the most rounds any part declares.
	if n := OptRounds(Stack(timing, structural)); n != 1 {
		t.Fatalf("single-round stack rounds = %d", n)
	}
	if n := OptRounds(Stack(repeated{timing, 3}, structural, repeated{structural, 2})); n != 3 {
		t.Fatalf("stack rounds = %d, want its largest part's 3", n)
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
	if base, _, err := OptBaseline(g, empty); err != nil || base != g {
		t.Fatalf("no-op OptBaseline = %p, %v; want the graph itself", base, err)
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

// materializedWith applies opt on a fresh patch over g and returns the
// materialized private graph.
func materializedWith(t *testing.T, g *Graph, opt Optimization) *Graph {
	t.Helper()
	p := NewPatch(g)
	if err := opt.Apply(p); err != nil {
		t.Fatal(err)
	}
	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStackMixesTimingAndPatchParts checks a stack of a timing-only and
// a patch-form structural part applies through ONE patch, and predicts
// identically to applying each part to the previous part's
// materialized graph.
func TestStackMixesTimingAndPatchParts(t *testing.T) {
	g := optTestGraph(t, 6)
	s := Stack(halveGPU(), dropFirstKernel())
	p := NewPatch(g)
	if err := s.Apply(p); err != nil {
		t.Fatal(err)
	}
	got, err := p.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	c := materializedWith(t, materializedWith(t, g, halveGPU()), dropFirstKernel())
	want, err := c.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("mixed stack via one patch %v, sequential materialization %v", got, want)
	}
}

// TestRewriteOptAndStackRewrite checks a value that declares rounds
// (the repeat-then-measure what-if P3 is): it is evaluated over
// OptBaseline's fresh Repeat of a single-iteration graph; in a stack,
// the parts before it edit the repeated iteration and the parts after
// it patch the repeated graph, and the stack keeps its measure; a
// second round-declaring part and a baseline that is already repeated
// are refused.
func TestRewriteOptAndStackRewrite(t *testing.T) {
	g := optTestGraph(t, 4)
	rounds := repeated{PatchOpt("repeat2", Structural, func(*Patch) error { return nil }, roundDistance), 2}
	if OptRounds(rounds) != 2 || OptMeasure(rounds) == nil {
		t.Fatalf("rounds = %d, measure set = %v", OptRounds(rounds), OptMeasure(rounds) != nil)
	}
	rep, apply, err := OptBaseline(g, rounds)
	if err != nil || apply != rounds {
		t.Fatalf("OptBaseline: %v, applies %v", err, apply)
	}
	if rep == g || rep.NumTasks() != 2*g.NumTasks() {
		t.Fatalf("OptBaseline returned %d tasks (baseline %d, same graph %v)", rep.NumTasks(), g.NumTasks(), rep == g)
	}
	if g.LayerPhaseIndex().Rounds() != 1 {
		t.Fatal("OptBaseline repeated the baseline in place")
	}

	// A part stacked before the round-declaring part edits the single
	// iteration the rounds repeat: OptBaseline materializes it before
	// the Repeat and hands back the rest of the stack, which keeps the
	// round-declaring part's measure.
	mixed := Stack(halveGPU(), rounds)
	if OptRounds(mixed) != 2 || OptMeasure(mixed) == nil {
		t.Fatal("stack lost the part's rounds or measure")
	}
	base, apply, err := OptBaseline(g, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if apply.Name() != "repeat2" {
		t.Fatalf("OptBaseline left %q to apply, want the stack from repeat2 on", apply.Name())
	}
	p := NewPatch(base)
	if err := apply.Apply(p); err != nil {
		t.Fatal(err)
	}
	res, err := p.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := OptMeasure(mixed)(p, res)
	if err != nil {
		t.Fatal(err)
	}
	// The reference halves the single iteration's GPU tasks, then
	// repeats the materialized result.
	half, err := materializedWith(t, g, halveGPU()).Repeat(2)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := half.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := roundDistance(half, hres); got != want || got <= 0 {
		t.Fatalf("stack over the repeated baseline measures %v, reference %v", got, want)
	}

	// A structural edit before the round-declaring part lands in every
	// round; after it, the edit applies once over the repeated graph
	// the round-declaring part's edits were materialized into.
	n := g.NumTasks()
	before, apply, err := OptBaseline(g, Stack(dropFirstKernel(), rounds))
	if err != nil {
		t.Fatal(err)
	}
	if before.NumTasks() != 2*(n-1) {
		t.Fatalf("drop before the rounds: baseline has %d tasks, want %d", before.NumTasks(), 2*(n-1))
	}
	if g.NumTasks() != n {
		t.Fatal("OptBaseline applied the stack's first part to the baseline in place")
	}
	p = NewPatch(before)
	if err := apply.Apply(p); err != nil || p.NumTasks() != 2*(n-1) {
		t.Fatalf("rest of the stack: %v, view has %d tasks", err, p.NumTasks())
	}
	base, apply, err = OptBaseline(g, Stack(rounds, dropFirstKernel()))
	if err != nil || apply.Name() != "drop-first-kernel" || base.NumTasks() != 2*n {
		t.Fatalf("drop after the rounds: %v, applies %v, baseline has %d tasks", err, apply, base.NumTasks())
	}
	p = NewPatch(base)
	if err := apply.Apply(p); err != nil || p.NumTasks() != 2*n-1 {
		t.Fatalf("drop after the rounds: %v, view has %d tasks, want %d", err, p.NumTasks(), 2*n-1)
	}

	// Two round-declaring parts would chain rounds of rounds.
	if _, _, err := OptBaseline(g, Stack(rounds, halveGPU(), rounds)); err == nil {
		t.Fatal("OptBaseline accepted a stack with two round-declaring parts")
	}

	if _, _, err := OptBaseline(rep, rounds); err == nil {
		t.Fatal("OptBaseline repeated an already repeated baseline")
	}
}

// TestStackPatchRejectsGraphPart checks what a stack refuses: a part
// that cannot apply to the patch fails the whole stack before any later
// part runs, and a stack carrying a round-declaring part refuses a
// baseline that already spans several rounds.
func TestStackPatchRejectsGraphPart(t *testing.T) {
	ran := false
	later := PatchOpt("later", TimingOnly, func(*Patch) error { ran = true; return nil }, nil)
	noGPU := NewGraph()
	noGPU.appendTask(noGPU.newTask("cpu", trace.KindLaunch, CPU(1), time.Microsecond))
	s := Stack(halveGPU(), dropFirstKernel(), later)
	if err := s.Apply(NewPatch(noGPU)); err == nil {
		t.Fatal("stack applied a part that found no GPU task")
	}
	if ran {
		t.Fatal("stack ran a part after a failing one")
	}
	if err := s.Apply(NewPatch(optTestGraph(t, 1))); err != nil || !ran {
		t.Fatalf("stack over a graph its parts accept: %v, later part ran %v", err, ran)
	}

	rounds := Stack(halveGPU(), repeated{dropFirstKernel(), 2})
	rep, err := optTestGraph(t, 2).Repeat(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := OptBaseline(rep, rounds); err == nil {
		t.Fatal("stack with a round-declaring part accepted a repeated baseline")
	}
}
