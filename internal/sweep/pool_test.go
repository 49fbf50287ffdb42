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
			Opt: timingOpt(func(o *core.Overlay) error {
				o.SetDuration(u, o.Duration(u)+delta)
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
