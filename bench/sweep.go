package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"daydream/internal/core"
	"daydream/internal/sweep"
	"daydream/internal/whatif"
)

// sweepCall is one planner grid over one baseline: one sweep.Run call.
type sweepCall struct {
	grid      string
	key       string
	base      *core.Graph
	scenarios []sweep.Scenario
}

// sweepWorkload times the planner grids that sweep.Run fans over its
// worker pool — the paper's "many questions from one profile" use:
//
//   - kcurve: one narrow kernel family at 16 seeded speed factors, on
//     bert-large and gnmt, answered on the incremental tier;
//   - fig8: data-parallel training over Figure 8's 19 cluster topologies
//     on four models, on the patch tier;
//   - pipegrid: every stages × microbatches × schedule partitioning on
//     bert-large and resnet50, under the pipeline schedulers;
//   - p3bw: P3 on resnet50 at five seeded NIC rates, on the clone tier.
//
// One op is one scenario row; latency is per grid call.
type sweepWorkload struct {
	cfg   *config
	calls []sweepCall
	deck  *deck
	// ran lists the call of every op and values the rows of every op, in
	// the same order; neither holds pointers for the collector to mark.
	ran    []int
	values []time.Duration
	// tiers counts rows per dispatch tier since the phase began.
	tiers map[string]int
}

// failedRow marks a row that returned an error; it already counts as
// failed and is not verified again.
const failedRow = time.Duration(-1)

// sweepWorkers is the sweep's worker pool size: one per core of the
// two-core machine the benchmark is sized for.
const sweepWorkers = 2

// kcurveTargets are narrow kernel families, one kernel name each, whose
// scaled durations the sweep's incremental tier re-simulates without
// falling back to a full replay.
var kcurveTargets = []struct{ model, target string }{
	{"bert-large", "embedding_backward"},
	{"gnmt", "lstm_wgrad"},
}

func newSweep(cfg *config) (*sweepWorkload, error) {
	rng := newRand(cfg.seed, 3)
	w := &sweepWorkload{cfg: cfg, tiers: map[string]int{}}
	bases := map[string]*core.Graph{}
	keys := map[string]string{}
	for _, model := range []string{"bert-large", "bert-base", "gnmt", "resnet50"} {
		p := seededProfile(rng, model)
		var err error
		if bases[model], err = p.graph(); err != nil {
			return nil, err
		}
		keys[model] = p.key()
	}
	add := func(grid, model string, exprs []string, params []whatif.OptParams) error {
		c := sweepCall{grid: grid, key: grid + " " + keys[model], base: bases[model]}
		for i, expr := range exprs {
			opt, err := whatif.ParseStack(expr, params[i])
			if err != nil {
				return fmt.Errorf("%s: %w", c.key, err)
			}
			c.scenarios = append(c.scenarios, sweep.Scenario{Name: opt.Name(), Opt: opt})
		}
		w.calls = append(w.calls, c)
		return nil
	}

	factors := make([]float64, 16)
	for i := range factors {
		factors[i] = 0.25 * math.Pow(16, rng.Float64())
	}
	sort.Float64s(factors)
	for _, kt := range kcurveTargets {
		exprs := make([]string, len(factors))
		params := make([]whatif.OptParams, len(factors))
		for i, f := range factors {
			exprs[i] = "scale"
			params[i] = whatif.OptParams{ScaleTarget: kt.target, ScaleFactor: f}
		}
		if err := add("kcurve", kt.model, exprs, params); err != nil {
			return nil, err
		}
	}

	var exprs []string
	var params []whatif.OptParams
	for _, gbps := range []float64{10, 20, 40} {
		for _, mg := range [][2]int{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {2, 2}, {3, 2}, {4, 2}} {
			if mg == [2]int{1, 1} && gbps != 10 {
				continue // a single GPU has no network
			}
			exprs = append(exprs, "distributed")
			params = append(params, whatif.OptParams{Topology: topology(mg[0], mg[1], gbps)})
		}
	}
	for _, model := range []string{"resnet50", "gnmt", "bert-base", "bert-large"} {
		if err := add("fig8", model, exprs, params); err != nil {
			return nil, err
		}
	}

	exprs, params = nil, nil
	for _, stages := range []int{2, 4} {
		for _, micro := range []int{2, 4, 8} {
			for _, sched := range []string{"1f1b", "gpipe"} {
				exprs = append(exprs, fmt.Sprintf("pipeline:%dx%d:%s", stages, micro, sched))
				params = append(params, whatif.OptParams{})
			}
		}
	}
	for _, model := range []string{"bert-large", "resnet50"} {
		if err := add("pipegrid", model, exprs, params); err != nil {
			return nil, err
		}
	}

	exprs, params = nil, nil
	for i := 0; i < 5; i++ {
		exprs = append(exprs, "p3")
		params = append(params, whatif.OptParams{Topology: topology(4, 1, 1+9*rng.Float64())})
	}
	if err := add("p3bw", "resnet50", exprs, params); err != nil {
		return nil, err
	}

	w.deck = newDeck(rng, len(w.calls))
	return w, nil
}

func (w *sweepWorkload) run(d time.Duration, traced bool) phase {
	var tr *tracer
	if traced {
		tr = newTracer(0, processStart)
	}
	clear(w.tiers)
	ph := closedLoop(d, func() (int, int) { return w.op(tr) })
	if traced {
		ph.tracers = []*tracer{tr}
		rows := 0
		for _, n := range w.tiers {
			rows += n
		}
		ph.layer = map[string]float64{}
		for _, tier := range []string{sweep.TierIncremental, sweep.TierOverlay, sweep.TierPatch, sweep.TierClone} {
			ph.layer["sweep.tier."+tier+".share"] = float64(w.tiers[tier]) / float64(max(rows, 1))
		}
	}
	return ph
}

func (w *sweepWorkload) op(tr *tracer) (attempted, failed int) {
	ci := w.deck.next()
	c := &w.calls[ci]
	s := tr.begin("sweep."+c.grid, len(w.ran), false)
	// Row errors are in the rows; the returned error repeats the first.
	rows, _ := sweep.Run(c.base, c.scenarios, sweep.Workers(sweepWorkers))
	tr.end(s)
	for _, r := range rows {
		v := r.Value
		if r.Err != nil {
			failed++
			v = failedRow
		}
		w.values = append(w.values, v)
		w.tiers[r.Tier]++
	}
	if len(w.ran) == 0 && w.cfg.tamper != nil {
		w.values[0] = time.Duration(w.cfg.tamper(int64(w.values[0])))
	}
	w.ran = append(w.ran, ci)
	return len(rows), failed
}

// verify checks every row against one sequential run of the same grid.
func (w *sweepWorkload) verify() (int, string, error) {
	refs := make([][]time.Duration, len(w.calls))
	var lines []string
	for i := range w.calls {
		c := &w.calls[i]
		rows, err := sweep.Run(c.base, c.scenarios, sweep.Workers(1))
		if err != nil {
			return 0, "", fmt.Errorf("%s: %w", c.key, err)
		}
		for _, r := range rows {
			refs[i] = append(refs[i], r.Value)
			lines = append(lines, fmt.Sprintf("%s %s %d", c.key, r.Name, r.Value))
		}
	}
	mismatches, off := 0, 0
	for _, ci := range w.ran {
		for j, want := range refs[ci] {
			if v := w.values[off+j]; v != failedRow && v != want {
				mismatches++
			}
		}
		off += len(refs[ci])
	}
	return mismatches, digest(lines), nil
}

func (w *sweepWorkload) trail() []string {
	keys := make([]string, len(w.ran))
	for i, ci := range w.ran {
		keys[i] = w.calls[ci].key
	}
	return keys
}

func (w *sweepWorkload) close() {}
