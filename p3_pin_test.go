package daydream_test

import (
	"testing"
	"time"

	"daydream"
	"daydream/internal/core"
	"daydream/internal/mem"
	"daydream/internal/sweep"
	"daydream/internal/whatif"
)

// p3PinGraph is the single-worker VGG-19 MXNet profile the P3 pins
// were recorded on.
func p3PinGraph(tb testing.TB) *daydream.Graph {
	tb.Helper()
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "vgg19", Device: "p4000", Framework: "mxnet"})
	if err != nil {
		tb.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestP3Pinned holds OptP3's predictions, through every evaluator, to
// the nanosecond values recorded when P3 was still a graph rewrite
// evaluated on a private clone (a Repeat of the profile, annotated in
// place). A change to how P3's baseline is repeated, patched or
// measured shows here first.
func TestP3Pinned(t *testing.T) {
	g := p3PinGraph(t)
	topo := daydream.NewTopology(4, 1, 2)
	p3 := daydream.OptP3(topo, 0)
	const baseline = 1323071554

	for _, c := range []struct {
		name string
		opt  daydream.Optimization
		want time.Duration
	}{
		{"sliced", p3, 2313465768},
		{"fifo", daydream.OptP3(topo, -1), 4016300752},
		{"amp+p3", core.Stack(whatif.OptAMP(), p3), 2313063534},
		{"p3+amp", core.Stack(p3, whatif.OptAMP()), 2313063534},
	} {
		b, p, err := daydream.Compare(g, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if b != baseline || p != c.want {
			t.Errorf("%s: Compare = (%d, %d), pinned (%d, %d)", c.name, b, p, baseline, c.want)
		}
	}

	// A sweep row: the scenario's Measure overrides P3's, and the
	// retained graph is a private materialization of the row's patch.
	round0 := func(v core.TaskView, res *core.SimResult) (time.Duration, error) {
		return core.RoundSpan(v, res, 0), nil
	}
	rows, err := sweep.Run(g, []sweep.Scenario{{Opt: p3, Measure: round0}, {Opt: p3}}, sweep.KeepGraphs())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []time.Duration{2750000056, 2313465768} {
		r := rows[i]
		if r.Tier != sweep.TierPatch || r.Value != want {
			t.Errorf("row %d: tier %s value %d, want patch %d", i, r.Tier, r.Value, want)
		}
		if r.Graph == nil || r.Graph == g || len(r.Graph.Tasks()) != 3580 {
			t.Fatalf("row %d: retained graph %p (baseline %p) is not the private 3580-task P3 graph", i, r.Graph, g)
		}
		res, err := r.Graph.Simulate()
		if err != nil || res.Makespan != 5063465824 {
			t.Errorf("row %d: retained graph simulates to %v, %v; pinned 5063465824", i, res.Makespan, err)
		}
	}
	// Writing the retained graph leaves the baseline and the other row
	// alone.
	for _, task := range rows[0].Graph.Tasks() {
		task.Duration = 0
	}
	if b, err := g.PredictIteration(); err != nil || b != baseline {
		t.Fatalf("baseline after writing a retained graph = %v, %v", b, err)
	}
	if res, err := rows[1].Graph.Simulate(); err != nil || res.Makespan != 5063465824 {
		t.Fatalf("second row's graph after writing the first = %v, %v", res.Makespan, err)
	}

	makespan, prof, err := mem.ProfileOpt(g, p3)
	if err != nil {
		t.Fatal(err)
	}
	if makespan != 5063465824 || prof.MaxPeak() != 5150591296 {
		t.Errorf("ProfileOpt = %d, peak %d; pinned 5063465824, peak 5150591296", makespan, prof.MaxPeak())
	}
}

// TestP3StacksPinned holds stacks that place other what-ifs before and
// after P3 — as the CLI's -opt expressions do — to the values recorded
// when a stack applied its parts in order, materializing each, and P3
// repeated whatever the parts before it had built. A part before P3
// edits every round (Distributed's all-reduces, Gist's encode/decode
// kernels); a part after it edits the repeated graph once; a part
// reads the earlier parts' edits from its baseline (Gist sizes its
// kernels from AMP-scaled ones).
func TestP3StacksPinned(t *testing.T) {
	g := p3PinGraph(t)
	params := whatif.OptParams{Topology: daydream.NewTopology(4, 1, 2)}
	for _, c := range []struct {
		expr     string
		want     time.Duration // Compare, and the sweep row
		round0   time.Duration // the sweep row under a round-0 Measure
		tasks    int           // the retained graph's
		makespan time.Duration // mem.ProfileOpt, and the retained graph's
		peak     int64
	}{
		{"distributed+p3", 3910061427, 3910061427, 3594, 7820122854, 5150591296},
		{"p3+distributed", 2750000056, 3910061427, 3587, 6660061483, 5150591296},
		{"gist+p3", 2313465768, 2763057652, 3652, 5076523420, 5183690048},
		{"vdnn+p3", 2313465768, 2750000056, 3644, 5063465824, 5150591296},
		{"amp+gist+p3", 2313063534, 2469894235, 3652, 4782957769, 5183690048},
		{"p3+amp+gist", 2313063534, 2469894235, 3616, 4782957769, 5183690048},
	} {
		opt, err := whatif.ParseStack(c.expr, params)
		if err != nil {
			t.Fatal(err)
		}
		if _, p, err := daydream.Compare(g, opt); err != nil || p != c.want {
			t.Errorf("%s: Compare = %d, %v; pinned %d", c.expr, p, err, c.want)
		}
		makespan, prof, err := mem.ProfileOpt(g, opt)
		if err != nil || makespan != c.makespan || prof.MaxPeak() != c.peak {
			t.Errorf("%s: ProfileOpt = %d, %v; pinned %d, peak %d", c.expr, makespan, err, c.makespan, c.peak)
		}
		round0 := func(v core.TaskView, res *core.SimResult) (time.Duration, error) {
			return core.RoundSpan(v, res, 0), nil
		}
		rows, err := sweep.Run(g, []sweep.Scenario{{Opt: opt}, {Opt: opt, Measure: round0}}, sweep.KeepGraphs())
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []time.Duration{c.want, c.round0} {
			r := rows[i]
			if r.Value != want || r.Graph == nil || len(r.Graph.Tasks()) != c.tasks {
				t.Errorf("%s row %d: value %d, want %d; retained graph %p, want %d tasks", c.expr, i, r.Value, want, r.Graph, c.tasks)
				continue
			}
			if res, err := r.Graph.Simulate(); err != nil || res.Makespan != c.makespan {
				t.Errorf("%s row %d: retained graph simulates to %v, %v; pinned %d", c.expr, i, res.Makespan, err, c.makespan)
			}
		}
	}
}

// TestP3OverRepeatedBaselineFails checks that OptP3 evaluated over a
// profile that is already repeated is an error, not an answer over
// four rounds.
func TestP3OverRepeatedBaselineFails(t *testing.T) {
	g := p3PinGraph(t)
	rep, err := g.Repeat(2)
	if err != nil {
		t.Fatal(err)
	}
	p3 := daydream.OptP3(daydream.NewTopology(4, 1, 2), 0)
	if _, _, err := daydream.Compare(rep, p3); err == nil {
		t.Error("Compare accepted OptP3 over a repeated baseline")
	}
	rows, _ := sweep.Run(rep, []sweep.Scenario{{Opt: p3}})
	if rows[0].Err == nil {
		t.Errorf("sweep row over a repeated baseline = %v, want an error", rows[0].Value)
	}
}

// TestNoRegistryRowClones asserts that every registry what-if runs on a
// shared-baseline tier: no sweep row reports TierClone.
func TestNoRegistryRowClones(t *testing.T) {
	g := p3PinGraph(t)
	params := whatif.OptParams{Topology: daydream.NewTopology(4, 1, 10)}
	var scenarios []sweep.Scenario
	for _, spec := range whatif.Registry() {
		opt, err := whatif.BuildByName(spec.Name, params)
		if err != nil {
			continue // not applicable with these parameters
		}
		scenarios = append(scenarios, sweep.Scenario{Name: spec.Name, Opt: opt})
	}
	if len(scenarios) < 5 {
		t.Fatalf("only %d registry what-ifs built", len(scenarios))
	}
	rows, _ := sweep.Run(g, scenarios, sweep.Workers(2))
	for _, r := range rows {
		if r.Tier == sweep.TierClone {
			t.Errorf("%s ran on the clone tier", r.Name)
		}
	}
}
