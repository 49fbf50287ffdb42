package sweep_test

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/sweep"
	"daydream/internal/whatif"
)

// baselineRecorder forwards to a round-declaring value and records, by
// weak pointer, every baseline a patch applies it over.
type baselineRecorder struct {
	core.Optimization
	mu   *sync.Mutex
	seen map[weak.Pointer[core.Graph]]bool
}

func (o baselineRecorder) Apply(p *core.Patch) error {
	o.mu.Lock()
	o.seen[weak.Make(p.Base())] = true
	o.mu.Unlock()
	return o.Optimization.Apply(p)
}

func (o baselineRecorder) Rounds() int { return core.OptRounds(o.Optimization) }

func (o baselineRecorder) MeasureFunc() func(core.TaskView, *core.SimResult) (time.Duration, error) {
	return core.OptMeasure(o.Optimization)
}

// TestP3GridSharesOneRepeat checks the sweep's per-call repeated
// baseline: a five-row P3 grid on two workers patches one Repeat of the
// profile, its rows equal an evaluation of each row over its own fresh
// Repeat, and once Pool.Run returns nothing the pool keeps reaches that
// graph, so the collector frees it.
func TestP3GridSharesOneRepeat(t *testing.T) {
	m, err := dnn.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	run, err := framework.Run(framework.Config{Model: m, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(run.Trace)
	if err != nil {
		t.Fatal(err)
	}
	core.MapLayers(g, run.Trace.LayerSpans)

	rec := baselineRecorder{mu: new(sync.Mutex), seen: map[weak.Pointer[core.Graph]]bool{}}
	var scenarios []sweep.Scenario
	var want []time.Duration
	for _, gbps := range []float64{1.5, 3, 4.5, 7, 9.5} {
		opt := whatif.OptP3(whatif.P3Options{
			Topology:   comm.Topology{Machines: 4, GPUsPerMachine: 1, NICBandwidth: comm.Gbps(gbps), IntraBandwidth: 11e9, StepLatency: 15 * time.Microsecond},
			SliceBytes: whatif.P3SliceBytes(0),
		})
		rec := rec
		rec.Optimization = opt
		scenarios = append(scenarios, sweep.Scenario{Opt: rec})

		rep, apply, err := core.OptBaseline(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		p := core.NewPatch(rep)
		if err := apply.Apply(p); err != nil {
			t.Fatal(err)
		}
		res, err := p.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		v, err := core.OptMeasure(opt)(p, res)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}

	pool := sweep.NewPool(2)
	rows, err := pool.Run(g, scenarios, sweep.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Value != want[i] || r.Tier != sweep.TierPatch {
			t.Errorf("row %d: %v on the %s tier, want %v on the patch tier", i, r.Value, r.Tier, want[i])
		}
	}
	if len(rec.seen) != 1 {
		t.Fatalf("the grid's rows patched %d distinct baselines, want one shared Repeat", len(rec.seen))
	}
	runtime.GC()
	for wp := range rec.seen {
		if wp.Value() != nil {
			t.Error("the pool still reaches the call's repeated baseline after Run returned")
		}
	}
	runtime.KeepAlive(pool)
}
