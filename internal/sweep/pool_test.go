package sweep

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"daydream/internal/core"
)

// singleTaskScenarios builds n sparse timing-only scenarios (one task's
// duration nudged per scenario) — the shape the incremental tier is
// built for. Targets come from the tail of the graph so the deltas'
// affected cones stay small; front edits would correctly be routed to
// overlay replay by the tier chooser's cone estimate.
func singleTaskScenarios(g *core.Graph, n int) []Scenario {
	tasks := g.Tasks()
	scenarios := make([]Scenario, n)
	for i := range scenarios {
		u := tasks[len(tasks)-1-(i%len(tasks))]
		delta := time.Duration(i+1) * time.Microsecond
		scenarios[i] = Scenario{
			Opt: timingOpt(func(p *core.Patch) error {
				p.SetDuration(u, p.Duration(u)+delta)
				return nil
			}),
		}
	}
	return scenarios
}

// TestPoolWarmStateSurvivesRuns pins the pool's reason to exist: a
// second Run through the same Pool starts from the first Run's warm
// worker state, so even its first sparse timing-only scenario rides the
// incremental tier — a plain Run always pays at least one cold
// arm-and-build warm-up per worker.
func TestPoolWarmStateSurvivesRuns(t *testing.T) {
	g := testGraph(40)
	p := NewPool(1)
	scenarios := singleTaskScenarios(g, 4)

	first, err := p.Run(g, scenarios, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	// The first call warms up like a plain Run: scenario 0 arms, 1+
	// ride the incremental tier.
	if first[0].Tier != TierOverlay {
		t.Fatalf("first run scenario 0 tier = %q, want %q (cold arm)", first[0].Tier, TierOverlay)
	}
	for i, r := range first[1:] {
		if r.Tier != TierIncremental {
			t.Fatalf("first run scenario %d tier = %q, want %q", i+1, r.Tier, TierIncremental)
		}
	}

	second, err := p.Run(g, scenarios, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range second {
		if r.Tier != TierIncremental {
			t.Fatalf("second run scenario %d tier = %q, want %q (warm state lost)", i, r.Tier, TierIncremental)
		}
	}

	// Pooled results are bit-identical to a fresh cold Run.
	fresh, err := Run(g, scenarios, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if second[i].Value != fresh[i].Value {
			t.Fatalf("scenario %d pooled value %v != fresh value %v", i, second[i].Value, fresh[i].Value)
		}
	}
}

// TestPoolConcurrentRuns hammers one Pool from many goroutines under
// the race detector: concurrent Run calls must check out disjoint
// workers and still produce correct values.
func TestPoolConcurrentRuns(t *testing.T) {
	g := testGraph(30)
	want, err := Run(g, singleTaskScenarios(g, 6), Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(2)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.Run(g, singleTaskScenarios(g, 6), Workers(2))
			if err != nil {
				errs <- err
				return
			}
			for j := range got {
				if got[j].Value != want[j].Value {
					errs <- fmt.Errorf("scenario %d pooled value %v != %v", j, got[j].Value, want[j].Value)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPoolQuarantineStaysIsolated runs a panicking scenario through a
// pooled worker, then reuses the pool: the quarantined buffers must not
// poison the next call's rows.
func TestPoolQuarantineStaysIsolated(t *testing.T) {
	g := testGraph(30)
	p := NewPool(1)
	boom := core.PatchOpt("boom", core.TimingOnly, func(*core.Patch) error {
		panic("pool chaos")
	}, nil)
	res, err := p.Run(g, []Scenario{{Opt: boom}}, Workers(1))
	if err == nil {
		t.Fatal("panicking scenario did not error")
	}
	if res[0].Err == nil {
		t.Fatal("panicking scenario has no error row")
	}

	clean, err := p.Run(g, singleTaskScenarios(g, 3), Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(g, singleTaskScenarios(g, 3), Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if clean[i].Value != fresh[i].Value {
			t.Fatalf("post-quarantine scenario %d value %v != fresh %v", i, clean[i].Value, fresh[i].Value)
		}
	}
}

// TestPoolDropsRepeatedBaseline checks that an idle pooled worker holds
// no scenario's private repeated baseline: after a round-declaring row
// its patch and incremental arm are dropped, while a row over the
// shared baseline keeps its patch for reuse.
func TestPoolDropsRepeatedBaseline(t *testing.T) {
	g := testGraph(30)
	p := NewPool(1)
	idle := func() *worker {
		t.Helper()
		if len(p.free) != 1 {
			t.Fatalf("pool holds %d idle workers, want 1", len(p.free))
		}
		return p.free[0]
	}
	if _, err := p.Run(g, []Scenario{{Opt: insertCommOpt(time.Millisecond)}}, Workers(1)); err != nil {
		t.Fatal(err)
	}
	if w := idle(); w.patch == nil || w.patch.Base() != g {
		t.Fatal("a row over the shared baseline did not leave its patch for reuse")
	}
	halve := timingOpt(func(p *core.Patch) error {
		for _, u := range p.Base().Tasks() {
			p.SetDuration(u, p.Duration(u)/2)
		}
		return nil
	})
	for _, opt := range []core.Optimization{roundsOpt{insertCommOpt(time.Millisecond), 2}, roundsOpt{halve, 2}} {
		res, err := p.Run(g, []Scenario{{Opt: opt}}, Workers(1))
		if err != nil {
			t.Fatal(err)
		}
		if w := idle(); w.patch != nil || (w.incrBase != nil && w.incrBase != g) {
			t.Fatalf("%s row (%s tier): idle worker keeps patch %v, incremental arm %p", opt.Name(), res[0].Tier, w.patch != nil, w.incrBase)
		}
	}
}
