package sweep

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"daydream/internal/core"
	"daydream/internal/trace"
)

// testGraph builds a small two-thread graph: a CPU chain launching a GPU
// chain, enough structure for transformations to bite.
func testGraph(n int) *core.Graph {
	g := core.NewGraph()
	for i := 0; i < n; i++ {
		launch := g.NewTask("cudaLaunchKernel", trace.KindLaunch, core.CPU(1), 2*time.Microsecond)
		g.AppendTask(launch)
		kern := g.NewTask(fmt.Sprintf("k%d", i), trace.KindKernel, core.Stream(7), 10*time.Microsecond)
		g.AppendTask(kern)
		if err := g.Correlate(launch, kern); err != nil {
			panic(err)
		}
	}
	return g
}

// rewriteOpt wraps a graph transform as a value evaluated on a private
// clone (the clone tier).
func rewriteOpt(rewrite func(*core.Graph) (*core.Graph, error)) core.Optimization {
	return core.RewriteOpt("", rewrite, nil)
}

// timingOpt wraps an edit of the patch's timing tier as a timing-only
// value (the overlay and incremental tiers).
func timingOpt(edit func(*core.Overlay) error) core.Optimization {
	return core.PatchOpt("", core.TimingOnly, func(p *core.Patch) error { return edit(p.Timing()) }, nil)
}

// scaleScenario shrinks every GPU kernel by the given factor.
func scaleScenario(name string, factor float64) Scenario {
	return Scenario{
		Name: name,
		Opt: rewriteOpt(func(g *core.Graph) (*core.Graph, error) {
			for _, u := range g.Select(core.OnGPUPred) {
				u.Duration = time.Duration(float64(u.Duration) * factor)
			}
			return g, nil
		}),
	}
}

// sequential runs the same scenarios one by one without the pool.
func sequential(t *testing.T, baseline *core.Graph, scenarios []Scenario) []time.Duration {
	t.Helper()
	out := make([]time.Duration, len(scenarios))
	for i, sc := range scenarios {
		base := sc.Base
		if base == nil {
			base = baseline
		}
		g := base.Clone()
		var err error
		if sc.Opt != nil {
			g, err = core.ApplyOptimization(g, sc.Opt)
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := g.Simulate(sc.SimOptions...)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Measure != nil {
			out[i], err = sc.Measure(core.TaskView(g), res)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			out[i] = res.Makespan
		}
	}
	return out
}

func TestSweepMatchesSequential(t *testing.T) {
	g := testGraph(40)
	var scenarios []Scenario
	for i := 0; i < 32; i++ {
		scenarios = append(scenarios, scaleScenario(fmt.Sprintf("s%d", i), 1.0-float64(i)/64))
	}
	want := sequential(t, g, scenarios)
	for _, workers := range []int{1, 2, 7, 64} {
		results, err := Run(g, scenarios, Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Name != scenarios[i].Name {
				t.Fatalf("workers=%d: result %d is %q, want %q", workers, i, r.Name, scenarios[i].Name)
			}
			if r.Value != want[i] {
				t.Fatalf("workers=%d: scenario %q = %v, sequential %v", workers, r.Name, r.Value, want[i])
			}
		}
	}
}

func TestSweepPerScenarioBase(t *testing.T) {
	a, b := testGraph(10), testGraph(30)
	results, err := Run(nil, []Scenario{
		{Name: "a", Base: a},
		{Name: "b", Base: b},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantA, _ := a.PredictIteration()
	wantB, _ := b.PredictIteration()
	if results[0].Value != wantA || results[1].Value != wantB {
		t.Fatalf("per-scenario bases: got (%v, %v), want (%v, %v)",
			results[0].Value, results[1].Value, wantA, wantB)
	}
}

func TestSweepNoBaseline(t *testing.T) {
	results, err := Run(nil, []Scenario{{Name: "orphan"}})
	if err == nil {
		t.Fatal("sweep with no baseline succeeded")
	}
	if results[0].Err == nil {
		t.Fatal("orphan scenario has no error")
	}
}

func TestSweepScenarioError(t *testing.T) {
	g := testGraph(5)
	boom := fmt.Errorf("boom")
	results, err := Run(g, []Scenario{
		scaleScenario("ok", 0.5),
		{Name: "bad", Opt: rewriteOpt(func(*core.Graph) (*core.Graph, error) { return nil, boom })},
		scaleScenario("also ok", 0.25),
	})
	if err == nil {
		t.Fatal("sweep with failing scenario returned nil error")
	}
	if results[1].Err == nil || results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("error placement wrong: %+v", results)
	}
	if results[0].Value == 0 || results[2].Value == 0 {
		t.Fatal("healthy scenarios did not run")
	}
}

func TestSweepMeasureAndKeep(t *testing.T) {
	g := testGraph(8)
	results, err := Run(g, []Scenario{{
		Name: "repeat",
		Opt: rewriteOpt(func(c *core.Graph) (*core.Graph, error) {
			return c.Repeat(3)
		}),
		Measure: func(rg core.TaskView, res *core.SimResult) (time.Duration, error) {
			return core.RoundSpan(rg, res, 2) - core.RoundSpan(rg, res, 1), nil
		},
	}}, KeepGraphs(), KeepSims())
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Graph == nil || r.Sim == nil {
		t.Fatal("KeepGraphs/KeepSims did not retain")
	}
	if r.Graph.NumTasks() != 3*g.NumTasks() {
		t.Fatalf("transformed graph has %d tasks, want %d", r.Graph.NumTasks(), 3*g.NumTasks())
	}
	if r.Value <= 0 {
		t.Fatalf("steady-state round time = %v", r.Value)
	}
}

// TestSweepSharedBaselineRace drives many concurrent sweeps over one
// shared baseline. Run under -race (the CI does) this verifies that
// concurrent Clone + Simulate over an immutable graph is data-race free.
func TestSweepSharedBaselineRace(t *testing.T) {
	g := testGraph(50)
	var scenarios []Scenario
	for i := 0; i < 16; i++ {
		scenarios = append(scenarios, scaleScenario(fmt.Sprintf("s%d", i), 0.9))
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(g, scenarios, Workers(4)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func TestSweepEmpty(t *testing.T) {
	results, err := Run(testGraph(1), nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty sweep: %v, %v", results, err)
	}
}

// overlayScaleScenario is scaleScenario's clone-free form.
func overlayScaleScenario(name string, factor float64) Scenario {
	return Scenario{
		Name: name,
		Opt: timingOpt(func(o *core.Overlay) error {
			for _, u := range o.Base().LayerPhaseIndex().GPUTasks() {
				o.ScaleDuration(u, factor)
			}
			return nil
		}),
	}
}

// TestSweepOverlayMatchesClonePath checks the clone-free dispatch: a
// duration-only scenario evaluated through a timing-only value is
// bit-identical to the same edit through the structural clone path.
func TestSweepOverlayMatchesClonePath(t *testing.T) {
	g := testGraph(60)
	var clonePath, overlayPath []Scenario
	for i := 0; i < 12; i++ {
		f := 0.5 + 0.04*float64(i)
		clonePath = append(clonePath, scaleScenario(fmt.Sprintf("s%d", i), f))
		overlayPath = append(overlayPath, overlayScaleScenario(fmt.Sprintf("s%d", i), f))
	}
	want, err := Run(g, clonePath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(g, overlayPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Value != want[i].Value {
			t.Fatalf("scenario %d: overlay %v, clone %v", i, got[i].Value, want[i].Value)
		}
	}
	// The baseline must be untouched by the overlay path.
	for _, u := range g.Tasks() {
		if u.OnGPU() && u.Duration != 10*time.Microsecond {
			t.Fatalf("overlay sweep mutated baseline task %v", u)
		}
	}
}

// TestSweepReplayPathSkipsClone checks a no-transform scenario replays
// the shared baseline (and still honors KeepGraphs' private-copy
// contract when asked).
func TestSweepReplayPathSkipsClone(t *testing.T) {
	g := testGraph(10)
	want, err := g.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, []Scenario{{Name: "replay"}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value != want {
		t.Fatalf("replay value %v, want %v", res[0].Value, want)
	}
	kept, err := Run(g, []Scenario{{Name: "replay"}}, KeepGraphs())
	if err != nil {
		t.Fatal(err)
	}
	if kept[0].Graph == g {
		t.Fatal("KeepGraphs replay returned the shared baseline instead of a private copy")
	}
}

// TestSweepOverlayMeasureSeesEffectiveTimings checks Measure receives
// the worker's patch as its TaskView on the clone-free path and reads
// the effective timings through the SimResult.
func TestSweepOverlayMeasureSeesEffectiveTimings(t *testing.T) {
	g := testGraph(5)
	kernels := g.Select(core.OnGPUPred)
	last := kernels[len(kernels)-1]
	sc := Scenario{
		Name: "measure",
		Opt: timingOpt(func(o *core.Overlay) error {
			o.SetDuration(last, time.Millisecond)
			return nil
		}),
		Measure: func(v core.TaskView, res *core.SimResult) (time.Duration, error) {
			p, ok := v.(*core.Patch)
			if !ok {
				t.Errorf("clone-free Measure received %T, want *core.Patch", v)
			} else if p.Base() != g {
				t.Error("patch view is not over the shared baseline")
			}
			if d := res.TaskDuration(last); d != time.Millisecond {
				t.Errorf("TaskDuration through result = %v, want 1ms", d)
			}
			return res.Finish(last), nil
		},
	}
	res, err := Run(g, []Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value <= time.Millisecond {
		t.Fatalf("Finish through overlay result = %v, want > 1ms", res[0].Value)
	}
}

// TestSweepConcurrentOverlayRace drives many concurrent overlay sweeps
// over one shared baseline and one shared layer index. Run under -race
// (the CI does) this verifies the copy-on-write sharing model: workers
// never write to the baseline, and the memoized index publishes safely.
func TestSweepConcurrentOverlayRace(t *testing.T) {
	g := testGraph(50)
	// Prime nothing: let the racing sweeps build the index concurrently.
	var scenarios []Scenario
	for i := 0; i < 16; i++ {
		scenarios = append(scenarios, overlayScaleScenario(fmt.Sprintf("s%d", i), 0.9))
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(g, scenarios, Workers(4)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestSweepOverlayKeepGraphsIsPrivate checks KeepGraphs never hands
// back the shared baseline for an overlay scenario: the retained graph
// is a private clone carrying the overlay's effective timings.
func TestSweepOverlayKeepGraphsIsPrivate(t *testing.T) {
	g := testGraph(6)
	res, err := Run(g, []Scenario{overlayScaleScenario("amp", 0.5)}, KeepGraphs())
	if err != nil {
		t.Fatal(err)
	}
	kept := res[0].Graph
	if kept == g {
		t.Fatal("KeepGraphs returned the shared baseline for an overlay scenario")
	}
	for _, u := range kept.Tasks() {
		if u.OnGPU() && u.Duration != 5*time.Microsecond {
			t.Fatalf("materialized graph task %v does not carry the overlay duration", u)
		}
	}
	// The baseline stays untouched.
	for _, u := range g.Tasks() {
		if u.OnGPU() && u.Duration != 10*time.Microsecond {
			t.Fatalf("baseline task %v mutated", u)
		}
	}
	// The materialized clone simulates to the overlay's prediction.
	mk, err := kept.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if mk != res[0].Value {
		t.Fatalf("materialized graph makespan %v, scenario value %v", mk, res[0].Value)
	}
}

// TestSweepReplayMeasureSeesBaseline pins the Measure contract on the
// replay path: the TaskView is the shared baseline itself (read-only —
// Simulate never mutates, and neither may the Measure), with no clone
// spent on it.
func TestSweepReplayMeasureSeesBaseline(t *testing.T) {
	g := testGraph(5)
	sc := Scenario{
		Name: "replay-measure",
		Measure: func(v core.TaskView, res *core.SimResult) (time.Duration, error) {
			if v.(*core.Graph) != g {
				t.Error("replay Measure did not receive the shared baseline view")
			}
			return res.Makespan, nil
		},
	}
	res, err := Run(g, []Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := g.PredictIteration()
	if res[0].Value != want {
		t.Fatalf("replay measure value %v, want %v", res[0].Value, want)
	}
}

// TestSweepNamePrecedence pins the Result naming rule: an explicit
// Scenario.Name always wins over the optimization's own name — on
// success AND on error results.
func TestSweepNamePrecedence(t *testing.T) {
	g := testGraph(4)
	failing := core.PatchOpt("opt-name-fail", core.Structural, func(*core.Patch) error {
		return fmt.Errorf("boom")
	}, nil)
	results, err := Run(g, []Scenario{
		{Name: "explicit", Opt: gpuScaleOpt(0.5)},
		{Opt: gpuScaleOpt(0.5)},
		{Name: "explicit-error", Opt: failing},
		{Opt: failing},
	})
	if err == nil {
		t.Fatal("sweep with failing scenarios returned nil error")
	}
	if results[0].Name != "explicit" {
		t.Fatalf("result 0 name = %q, want %q (Scenario.Name must win)", results[0].Name, "explicit")
	}
	if results[1].Name != "gpu-x0.5" {
		t.Fatalf("result 1 name = %q, want opt name", results[1].Name)
	}
	if results[2].Err == nil || results[2].Name != "explicit-error" {
		t.Fatalf("error result name = %q (err %v), want %q", results[2].Name, results[2].Err, "explicit-error")
	}
	if results[3].Err == nil || results[3].Name != "opt-name-fail" {
		t.Fatalf("error result name = %q (err %v), want opt name", results[3].Name, results[3].Err)
	}
}

// gpuScaleOpt is scaleScenario's what-if as a timing-only Optimization
// value.
func gpuScaleOpt(factor float64) core.Optimization {
	return core.PatchOpt(fmt.Sprintf("gpu-x%g", factor), core.TimingOnly, func(p *core.Patch) error {
		o := p.Timing()
		for _, u := range o.Base().Tasks() {
			if u.OnGPU() {
				o.ScaleDuration(u, factor)
			}
		}
		return nil
	}, nil)
}

// TestSweepOptDispatch checks the footprint dispatch on Scenario.Opt: a
// timing-only value, a stack of timing-only values, and a structural
// value all predict bit-identically to the equivalent manual paths.
func TestSweepOptDispatch(t *testing.T) {
	g := testGraph(40)
	structural := core.PatchOpt("drop-first-kernel", core.Structural, func(p *core.Patch) error {
		kernels := p.Base().Select(core.OnGPUPred)
		p.RemoveTask(kernels[0])
		return nil
	}, nil)
	opts := []Scenario{
		{Opt: gpuScaleOpt(0.5)},
		{Opt: core.Stack(gpuScaleOpt(0.5), gpuScaleOpt(0.5))},
		{Opt: structural},
	}
	manual := []Scenario{
		overlayScaleScenario("a", 0.5),
		overlayScaleScenario("b", 0.25),
		{Name: "c", Opt: rewriteOpt(func(c *core.Graph) (*core.Graph, error) {
			return core.ApplyOptimization(c, structural)
		})},
	}
	got, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, manual)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Value != want[i].Value {
			t.Fatalf("scenario %d: Opt dispatch %v, manual path %v", i, got[i].Value, want[i].Value)
		}
	}
	// Default names come from the optimization values.
	if got[0].Name != "gpu-x0.5" || got[1].Name != "gpu-x0.5+gpu-x0.5" {
		t.Fatalf("default names = %q, %q", got[0].Name, got[1].Name)
	}
	// The baseline survives every path untouched.
	for _, u := range g.Tasks() {
		if u.OnGPU() && u.Duration != 10*time.Microsecond {
			t.Fatalf("Opt sweep mutated baseline task %v", u)
		}
	}
}

// TestSweepOptCarriesMeasure checks an optimization's own metric is
// used when the scenario sets none, and that an explicit Measure wins.
func TestSweepOptCarriesMeasure(t *testing.T) {
	g := testGraph(8)
	repeat := core.RewriteOpt("repeat3",
		func(c *core.Graph) (*core.Graph, error) { return c.Repeat(3) },
		func(rg core.TaskView, res *core.SimResult) (time.Duration, error) {
			return core.RoundSpan(rg, res, 2) - core.RoundSpan(rg, res, 1), nil
		})
	res, err := Run(g, []Scenario{{Opt: repeat}})
	if err != nil {
		t.Fatal(err)
	}
	single, err := g.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value <= 0 || res[0].Value >= 3*single {
		t.Fatalf("opt-carried measure = %v (single iteration %v)", res[0].Value, single)
	}
	override, err := Run(g, []Scenario{{
		Opt:     repeat,
		Measure: func(core.TaskView, *core.SimResult) (time.Duration, error) { return 42, nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if override[0].Value != 42 {
		t.Fatalf("explicit Measure did not win: %v", override[0].Value)
	}
}

// TestSweepNoopStackReplaysWithoutClone pins the replay-path fast path
// for a no-op stack: a Scenario whose Opt is Stack() with zero parts
// must predict the baseline exactly and allocate no more than the
// existing no-what-if replay scenario — i.e. it takes the same
// clone-free, overlay-free path.
func TestSweepNoopStackReplaysWithoutClone(t *testing.T) {
	g := testGraph(20)
	want, err := g.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, []Scenario{{Opt: core.Stack()}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value != want {
		t.Fatalf("no-op stack predicts %v, baseline %v", res[0].Value, want)
	}
	if res[0].Name != "baseline" {
		t.Fatalf("no-op stack name = %q", res[0].Name)
	}

	// Allocation parity with the replay path, measured over identical
	// single-worker sweeps (the scenario values are built outside the
	// measurement): an overlay or clone dispatch would show up as extra
	// allocations.
	plainScenarios := []Scenario{{Name: "replay"}}
	noopScenarios := []Scenario{{Name: "replay", Opt: core.Stack()}}
	replay := testing.AllocsPerRun(50, func() {
		if _, err := Run(g, plainScenarios, Workers(1)); err != nil {
			t.Fatal(err)
		}
	})
	noop := testing.AllocsPerRun(50, func() {
		if _, err := Run(g, noopScenarios, Workers(1)); err != nil {
			t.Fatal(err)
		}
	})
	if noop > replay {
		t.Fatalf("no-op stack allocates %.0f/run, plain replay %.0f/run — it is not on the replay fast path", noop, replay)
	}
}

// insertCommOpt is a patch-form structural test what-if: one comm task
// appended to a fresh channel, gated by the last GPU kernel.
func insertCommOpt(d time.Duration) core.Optimization {
	return core.PatchOpt(fmt.Sprintf("comm-%v", d), core.Structural, func(p *core.Patch) error {
		kernels := p.Base().Select(core.OnGPUPred)
		if len(kernels) == 0 {
			return fmt.Errorf("no kernels")
		}
		c := p.NewTask("comm", trace.KindComm, core.Channel("test"), d)
		p.AppendTask(c)
		return p.AddDependency(kernels[len(kernels)-1], c, core.DepComm)
	}, nil)
}

// TestSweepStructuralPatchMatchesClonePath checks the unified patch
// dispatch for structural optimizations: a patch-form value evaluates
// without cloning and predicts bit-identically to the same surgery on a
// private clone, and KeepGraphs hands back a materialized private graph
// carrying the structural deltas.
func TestSweepStructuralPatchMatchesClonePath(t *testing.T) {
	g := testGraph(30)
	opt := insertCommOpt(3 * time.Millisecond)
	got, err := Run(g, []Scenario{{Opt: opt}}, KeepGraphs())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, []Scenario{{Name: "clone", Opt: rewriteOpt(func(c *core.Graph) (*core.Graph, error) {
		return core.ApplyOptimization(c, opt)
	})}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Value != want[0].Value {
		t.Fatalf("patch dispatch %v, clone path %v", got[0].Value, want[0].Value)
	}
	// KeepGraphs: a private materialized graph with the comm task.
	kept := got[0].Graph
	if kept == g {
		t.Fatal("KeepGraphs returned the shared baseline for a patch scenario")
	}
	if kept.NumTasks() != g.NumTasks()+1 {
		t.Fatalf("materialized graph has %d tasks, want %d", kept.NumTasks(), g.NumTasks()+1)
	}
	mk, err := kept.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if mk != got[0].Value {
		t.Fatalf("materialized graph makespan %v, scenario value %v", mk, got[0].Value)
	}
	// The baseline survives untouched.
	if g.NumTasks() != 30*2 {
		t.Fatalf("baseline task count changed: %d", g.NumTasks())
	}
}

// lifoSched is a trivial non-default scheduler for the scheduled
// structural sweep test.
type lifoSched struct{}

func (lifoSched) Pick(frontier []*core.Task, _ *core.SchedContext) int {
	return len(frontier) - 1
}

// TestSweepStructuralOptWithCustomScheduler pins the scheduled
// clone-free path: a structural Opt combined with a custom Scheduler in
// SimOptions evaluates directly over the worker's patch view — no
// materialized fallback — and matches the explicit clone-path result
// bit for bit.
func TestSweepStructuralOptWithCustomScheduler(t *testing.T) {
	g := testGraph(20)
	opt := insertCommOpt(2 * time.Millisecond)
	simOpts := []core.SimOption{core.WithScheduler(lifoSched{})}
	got, err := Run(g, []Scenario{{Opt: opt, SimOptions: simOpts}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, []Scenario{{
		Name: "clone",
		Opt: rewriteOpt(func(c *core.Graph) (*core.Graph, error) {
			return core.ApplyOptimization(c, opt)
		}),
		SimOptions: simOpts,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Value != want[0].Value {
		t.Fatalf("custom-scheduler patch fallback %v, clone path %v", got[0].Value, want[0].Value)
	}
}

// TestSweepConcurrentPatchRace drives many concurrent structural patch
// sweeps over one shared baseline. Run under -race (the CI does) this
// verifies the copy-on-write structural sharing model: workers record
// task/edge deltas without ever writing to the baseline.
func TestSweepConcurrentPatchRace(t *testing.T) {
	g := testGraph(50)
	var scenarios []Scenario
	for i := 0; i < 16; i++ {
		scenarios = append(scenarios, Scenario{Opt: insertCommOpt(time.Duration(i+1) * time.Millisecond)})
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(g, scenarios, Workers(4)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestSweepStackedOptRace drives concurrent sweeps of stacked
// optimizations over one shared baseline. Run under -race (the CI does)
// this verifies stacks inside Sweep never write to the shared graph.
func TestSweepStackedOptRace(t *testing.T) {
	g := testGraph(50)
	stacked := core.Stack(gpuScaleOpt(0.5), gpuScaleOpt(0.9))
	var scenarios []Scenario
	for i := 0; i < 16; i++ {
		scenarios = append(scenarios, Scenario{Name: fmt.Sprintf("s%d", i), Opt: stacked})
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(g, scenarios, Workers(4)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// wrappedEarliest is EarliestStart hidden behind a distinct type, so
// the dispatch treats it as a genuinely custom scheduler.
type wrappedEarliest struct{ core.EarliestStart }

// TestSweepNearTotalConeTakesOverlay pins the tier chooser's cone
// estimate: a sparse delta touching the very front of the iteration
// invalidates almost the whole warm schedule, so the battery must ride
// the overlay replay on every row — never arming the incremental tier —
// while the same battery editing the tail keeps riding incremental.
func TestSweepNearTotalConeTakesOverlay(t *testing.T) {
	g := testGraph(40)
	edit := func(name string, pick func(ks []*core.Task) *core.Task, d time.Duration) Scenario {
		return Scenario{Name: name, Opt: timingOpt(func(o *core.Overlay) error {
			o.SetDuration(pick(o.Base().Select(core.OnGPUPred)), d)
			return nil
		})}
	}
	head := func(ks []*core.Task) *core.Task { return ks[0] }
	tail := func(ks []*core.Task) *core.Task { return ks[len(ks)-1] }
	results, err := Run(g, []Scenario{
		edit("front-a", head, 40*time.Microsecond),
		edit("front-b", head, 80*time.Microsecond),
		edit("front-c", head, 120*time.Microsecond),
		edit("tail-warmup", tail, 40*time.Microsecond),
		edit("tail-incr", tail, 80*time.Microsecond),
	}, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	wantTiers := []string{TierOverlay, TierOverlay, TierOverlay, TierOverlay, TierIncremental}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("scenario %q: %v", r.Name, r.Err)
		}
		if r.Tier != wantTiers[i] {
			t.Errorf("scenario %q: tier %q, want %q", r.Name, r.Tier, wantTiers[i])
		}
	}
}

// TestSweepTierDispatch pins the Tier reported for every dispatch path
// and checks the incremental tier's values stay bit-identical to the
// sequential cold evaluation. Workers(1) makes the worker-local warm-up
// deterministic: the first timing-only scenario arms the lazy build
// (and still runs on the overlay path), every later one rides the warm
// incremental state.
func TestSweepTierDispatch(t *testing.T) {
	g := testGraph(40)
	structural := core.PatchOpt("append", core.Structural, func(p *core.Patch) error {
		nt := p.NewTask("extra", trace.KindKernel, core.Stream(7), 5*time.Microsecond)
		p.AppendTask(nt)
		return nil
	}, nil)
	// The incremental scenarios edit a single kernel: editing every GPU
	// task (like scaleScenario) would trip the dense-delta cutoff and
	// legitimately report the overlay tier instead.
	sparseOverlay := func(name string, d time.Duration) Scenario {
		return Scenario{Name: name, Opt: timingOpt(func(o *core.Overlay) error {
			ks := o.Base().Select(core.OnGPUPred)
			o.SetDuration(ks[len(ks)-1], d)
			return nil
		})}
	}
	sparseClone := func(name string, d time.Duration) Scenario {
		return Scenario{Name: name, Opt: rewriteOpt(func(c *core.Graph) (*core.Graph, error) {
			ks := c.Select(core.OnGPUPred)
			ks[len(ks)-1].Duration = d
			return c, nil
		})}
	}
	scenarios := []Scenario{
		{Name: "replay"},
		sparseOverlay("warmup", 40*time.Microsecond),
		sparseOverlay("incr-a", 80*time.Microsecond),
		sparseOverlay("incr-b", 120*time.Microsecond),
		scaleScenario("clone", 0.6),
		{Name: "structural", Opt: structural},
		func() Scenario {
			sc := overlayScaleScenario("sched", 0.5)
			sc.SimOptions = []core.SimOption{core.WithScheduler(wrappedEarliest{})}
			return sc
		}(),
	}
	// sequential() evaluates every scenario on a private clone; the
	// expected values come from the clone-path equivalents of the
	// first five.
	want := sequential(t, g, []Scenario{
		{Name: "replay"},
		sparseClone("warmup", 40*time.Microsecond),
		sparseClone("incr-a", 80*time.Microsecond),
		sparseClone("incr-b", 120*time.Microsecond),
		scaleScenario("clone", 0.6),
	})
	results, err := Run(g, scenarios, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	wantTiers := []string{
		TierReplay, TierOverlay, TierIncremental, TierIncremental,
		TierClone, TierPatch, TierOverlay,
	}
	for i, r := range results {
		if r.Tier != wantTiers[i] {
			t.Errorf("scenario %q: tier %q, want %q", r.Name, r.Tier, wantTiers[i])
		}
	}
	for i := range want {
		if results[i].Value != want[i] {
			t.Errorf("scenario %q: sweep %v, sequential %v", results[i].Name, results[i].Value, want[i])
		}
	}
}
