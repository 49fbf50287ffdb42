package whatif_test

// Scheduled-simulation equivalence suite: custom Schedulers run
// view-generically over the composite Patch view, with zero clones — so
// for every zoo model and every structural what-if with a patch form,
// simulating the patch under a non-default Scheduler must reproduce
// materialize+simulate under the same Scheduler bit for bit: same
// makespan, same start time for every task (baseline and appendix IDs
// alike), same per-thread end times, same critical path — and without
// ever paying a materialization. A -race sweep drives concurrent scheduled structural
// scenarios over one shared baseline.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/sweep"
	"daydream/internal/whatif"
)

// lifoEquivSched is a deliberately non-default, frontier-order-sensitive
// policy: it dispatches the most recently enabled task, so any
// divergence between the patch view's frontier evolution and the
// materialized graph's shows up immediately.
type lifoEquivSched struct{}

func (lifoEquivSched) Pick(frontier []*core.Task, _ *core.SchedContext) int {
	return len(frontier) - 1
}

// schedEquivSchedulers returns the policies the suite checks: the LIFO
// order probe and vDNN's compute-preempts-copies policy (which reads
// effective priorities and thread identity through the context).
func schedEquivSchedulers() map[string]core.Scheduler {
	return map[string]core.Scheduler{
		"lifo": lifoEquivSched{},
		"vdnn": whatif.VDNNScheduler{},
	}
}

func TestScheduledPatchEquivalenceAcrossZoo(t *testing.T) {
	for _, name := range dnn.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := profile(t, name, framework.PyTorch)
			for _, tc := range patchEquivCases(g) {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					base, apply, err := core.OptBaseline(g, tc.opt)
					if err != nil {
						t.Fatal(err)
					}
					tc.opt = apply
					for schedName, sched := range schedEquivSchedulers() {
						t.Run(schedName, func(t *testing.T) {
							assertScheduledEquivalence(t, base, tc, sched)
						})
					}
				})
			}
		})
	}
}

func assertScheduledEquivalence(t *testing.T, g *core.Graph, tc patchEquivCase, sched core.Scheduler) {
	t.Helper()
	p := core.NewPatch(g)
	if err := tc.opt.Apply(p); err != nil {
		t.Fatal(err)
	}
	got, err := p.Simulate(core.WithScheduler(sched))
	if err != nil {
		t.Fatal(err)
	}
	// The scheduled path must never have materialized: the whole point
	// is running the policy over the composite view.
	if n := p.Materializations(); n != 0 {
		t.Fatalf("scheduled patch simulation materialized %d times, want 0", n)
	}
	m, err := p.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Simulate(core.WithScheduler(sched))
	if err != nil {
		t.Fatal(err)
	}
	assertSameStructure(t, p, got, m, want)
	assertSameSchedule(t, p, got, m, want, true)
}

// TestOptVDNNSchedulerCarriedThroughSweep pins the scheduler-carrying
// form end to end: a sweep scenario with OptVDNN (no SimOptions at all)
// simulates under VDNNScheduler over the worker's patch, and must equal
// the reference — the vDNN patch materialized and simulated under the
// same policy. An explicit WithScheduler in SimOptions overrides the
// carried policy.
func TestOptVDNNSchedulerCarriedThroughSweep(t *testing.T) {
	g := profile(t, "vgg19", framework.PyTorch)
	got, err := sweep.Run(g, []sweep.Scenario{{Opt: whatif.OptVDNN(whatif.VDNNOptions{})}})
	if err != nil {
		t.Fatal(err)
	}
	c := applied(t, g, whatif.OptVDNN(whatif.VDNNOptions{}))
	want, err := c.PredictIteration(core.WithScheduler(whatif.VDNNScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Value != want {
		t.Fatalf("carried-scheduler sweep %v, materialized reference %v", got[0].Value, want)
	}
	// Compare honors the carried policy the same way.
	_, pred, err := whatifCompare(g, whatif.OptVDNN(whatif.VDNNOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if pred != want {
		t.Fatalf("Compare with carried scheduler %v, materialized reference %v", pred, want)
	}
	// An explicit scenario scheduler wins over the carried one.
	over, err := sweep.Run(g, []sweep.Scenario{{
		Opt:        whatif.OptVDNN(whatif.VDNNOptions{}),
		SimOptions: []core.SimOption{core.WithScheduler(core.EarliestStart{})},
	}})
	if err != nil {
		t.Fatal(err)
	}
	def, err := c.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if over[0].Value != def {
		t.Fatalf("SimOptions override %v, default-policy reference %v", over[0].Value, def)
	}
}

// whatifCompare evaluates an optimization the way daydream.Compare's
// value path does (patch apply + carried scheduler), kept local so the
// internal test does not import the root package.
func whatifCompare(g *core.Graph, opt core.Optimization) (time.Duration, time.Duration, error) {
	base, err := g.PredictIteration()
	if err != nil {
		return 0, 0, err
	}
	var simOpts []core.SimOption
	if s := core.OptScheduler(opt); s != nil {
		simOpts = append(simOpts, core.WithScheduler(s))
	}
	p := core.NewPatch(g)
	if err := opt.Apply(p); err != nil {
		return 0, 0, err
	}
	pred, err := p.PredictIteration(simOpts...)
	return base, pred, err
}

// TestStackedRemovalThenVDNN pins structural composition: vDNN applied
// after removal-form batchnorm restructuring in one Stack must gate its
// copies on tasks that are still live in the effective view — the same
// anchors sequential application finds — and predict identically under
// the carried scheduler. The sequential reference applies each part to
// the materialized result of the previous one.
func TestStackedRemovalThenVDNN(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	stacked := core.Stack(
		whatif.OptReconBatchnormRemoval(whatif.ReconBatchnormOptions{}),
		whatif.OptVDNN(whatif.VDNNOptions{}),
	)
	got, err := sweep.Run(g, []sweep.Scenario{{Opt: stacked}})
	if err != nil {
		t.Fatal(err)
	}
	c := applied(t, g, whatif.OptReconBatchnormRemoval(whatif.ReconBatchnormOptions{}))
	c = applied(t, c, whatif.OptVDNN(whatif.VDNNOptions{}))
	want, err := c.PredictIteration(core.WithScheduler(whatif.VDNNScheduler{}))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Value != want {
		t.Fatalf("stacked removal+vdnn patch %v, sequential reference %v", got[0].Value, want)
	}
}

// TestConcurrentScheduledStructuralSweepRace fans scheduled structural
// patch scenarios — Distributed under LIFO, vDNN under its carried
// policy — over one shared baseline from several goroutines at once.
// Run under -race (the CI does) this verifies the scheduled clone-free
// path never writes to the shared graph, and stays deterministic across
// worker counts.
func TestConcurrentScheduledStructuralSweepRace(t *testing.T) {
	g := profile(t, "vgg19", framework.PyTorch)
	var scenarios []sweep.Scenario
	for i, gbps := range []float64{5, 10, 20, 40} {
		scenarios = append(scenarios, sweep.Scenario{
			Name:       fmt.Sprintf("dist-lifo%d", i),
			Opt:        whatif.OptDistributed(whatif.DistributedOptions{Topology: topo4x1(gbps)}),
			SimOptions: []core.SimOption{core.WithScheduler(lifoEquivSched{})},
		})
	}
	scenarios = append(scenarios, sweep.Scenario{Opt: whatif.OptVDNN(whatif.VDNNOptions{})})
	want, err := sweep.Run(g, scenarios, sweep.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := sweep.Run(g, scenarios, sweep.Workers(3))
			if err != nil {
				t.Error(err)
				return
			}
			for j := range want {
				if got[j].Value != want[j].Value {
					t.Errorf("scenario %d: concurrent %v, sequential %v", j, got[j].Value, want[j].Value)
				}
			}
		}()
	}
	wg.Wait()
}
