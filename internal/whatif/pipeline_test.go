package whatif_test

import (
	"strings"
	"testing"
	"time"

	"daydream/internal/core"
	"daydream/internal/framework"
	"daydream/internal/whatif"
)

// pipelineResult applies the pipeline opt to a fresh patch over g and
// simulates it under the opt's carried scheduler.
func pipelineResult(t *testing.T, g *core.Graph, opts whatif.PipelineOptions, simOpts ...core.SimOption) (*core.Patch, *core.SimResult) {
	t.Helper()
	opt := whatif.OptPipeline(opts)
	p := core.NewPatch(g)
	if err := opt.Apply(p); err != nil {
		t.Fatal(err)
	}
	simOpts = append(simOpts, core.WithScheduler(core.OptScheduler(opt)))
	res, err := p.Simulate(simOpts...)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestPipelinePatchMatchesMaterialized is the structural-equivalence
// half of the windowed/pipeline suite: simulating the pipeline as
// clone-free patch deltas must be bit-identical to materializing the
// patch into a standalone graph and simulating that, under both the
// 1F1B and GPipe schedules.
func TestPipelinePatchMatchesMaterialized(t *testing.T) {
	for _, model := range []string{"resnet50", "bert-large"} {
		g := profile(t, model, framework.PyTorch)
		for _, sched := range []string{whatif.Schedule1F1B, whatif.ScheduleGPipe} {
			t.Run(model+"/"+sched, func(t *testing.T) {
				opts := whatif.PipelineOptions{Stages: 4, Microbatches: 8, Schedule: sched}
				opt := whatif.OptPipeline(opts)
				p := core.NewPatch(g)
				if err := opt.Apply(p); err != nil {
					t.Fatal(err)
				}
				s := core.OptScheduler(opt)
				if s == nil {
					t.Fatal("pipeline opt carries no scheduler")
				}
				pres, err := p.Simulate(core.WithScheduler(s))
				if err != nil {
					t.Fatal(err)
				}
				clone, err := p.Materialize()
				if err != nil {
					t.Fatal(err)
				}
				cres, err := clone.Simulate(core.WithScheduler(s))
				if err != nil {
					t.Fatal(err)
				}
				if pres.Makespan != cres.Makespan {
					t.Fatalf("patch makespan %v != clone %v", pres.Makespan, cres.Makespan)
				}
				if pres.Makespan <= 0 {
					t.Fatal("pipeline makespan not positive")
				}
				for tid, end := range cres.ThreadEnd {
					if pres.ThreadEnd[tid] != end {
						t.Fatalf("thread %v end: patch %v != clone %v", tid, pres.ThreadEnd[tid], end)
					}
				}
				for _, task := range clone.Tasks() {
					if cres.Start[task.ID] != pres.Start[task.ID] {
						t.Fatalf("task #%d %q start: patch %v != clone %v",
							task.ID, task.Name, pres.Start[task.ID], cres.Start[task.ID])
					}
				}
			})
		}
	}
}

// TestPipelineSchedulesDiverge pins that the carried policy matters:
// the two schedules order the same skeleton differently, so at least
// some task starts differ between 1F1B and GPipe.
func TestPipelineSchedulesDiverge(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	_, a := pipelineResult(t, g, whatif.PipelineOptions{Stages: 4, Microbatches: 8, Schedule: whatif.Schedule1F1B})
	_, b := pipelineResult(t, g, whatif.PipelineOptions{Stages: 4, Microbatches: 8, Schedule: whatif.ScheduleGPipe})
	if len(a.Start) != len(b.Start) {
		t.Fatalf("result spans differ: %d vs %d", len(a.Start), len(b.Start))
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] {
			return
		}
	}
	t.Fatal("1F1B and GPipe produced identical schedules")
}

// TestPipelineWindowedFootprint is the acceptance-scale memory check: a
// 1000-microbatch pipeline (Repeat(1000)-scale round count) simulated
// under a small round window retires nearly every round and retains a
// task span sized by the window and the zeroed baseline — not by the
// microbatch count.
func TestPipelineWindowedFootprint(t *testing.T) {
	const microbatches, window, stages = 1000, 8, 4
	g := profile(t, "vgg19", framework.PyTorch)
	baseN := len(g.Tasks())
	p, res := pipelineResult(t, g,
		whatif.PipelineOptions{Stages: stages, Microbatches: microbatches},
		core.WithRoundWindow(window))
	total := len(p.Tasks())
	if !res.Windowed() || len(res.Start) != 0 {
		t.Fatalf("windowed pipeline run retains Start array (%d entries)", len(res.Start))
	}
	if res.RetiredRounds() != microbatches-window {
		t.Fatalf("retired %d rounds, want %d", res.RetiredRounds(), microbatches-window)
	}
	perRound := (total - baseN) / microbatches
	// Round 0 spans the whole zeroed baseline plus its microbatch; after
	// it retires, occupancy is a handful of rounds of skeleton tasks.
	budget := baseN + (window+2*stages)*2*perRound
	if occ := res.WindowOccupancy(); occ > budget {
		t.Fatalf("window occupancy %d exceeds O(window) budget %d (pipeline graph has %d tasks)", occ, budget, total)
	}
	// Steady state: mid-stream retired spans settle into a cycle of
	// period ≤ stages (the first and last rounds carry fill/drain
	// bubbles by design), so the same round of two distant cycles has
	// the same span.
	sums := res.Summaries()
	for i := 0; i < stages; i++ {
		a, b := sums[400+i], sums[400+i+20*stages]
		if a.Span != b.Span {
			t.Fatalf("microbatch span not steady: %v at round %d vs %v at round %d",
				a.Span, a.Round, b.Span, b.Round)
		}
	}
}

// TestPipelineBeatsBaselineIterationShape sanity-checks the prediction:
// with transfers at NVLink-class bandwidth, splitting across 4 stages
// with 8 microbatches must not be slower than 4× the single-GPU
// iteration, and every stage thread must appear in the result.
func TestPipelineStageStructure(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	base, err := g.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	p, res := pipelineResult(t, g, whatif.PipelineOptions{Stages: 4, Microbatches: 8})
	if res.Makespan >= 4*base.Makespan {
		t.Fatalf("pipeline makespan %v not credible against single-GPU %v", res.Makespan, base.Makespan)
	}
	stages := map[core.ThreadID]bool{}
	links := 0
	for _, task := range p.Tasks() {
		if strings.HasPrefix(task.Name, "pipe_fwd") {
			stages[task.Thread] = true
		}
		if strings.HasPrefix(task.Name, "pipe_xfer_") {
			links++
		}
	}
	if len(stages) != 4 {
		t.Fatalf("forward tasks span %d stage threads, want 4", len(stages))
	}
	if want := 2 * 3 * 8; links != want {
		t.Fatalf("%d transfer tasks, want %d", links, want)
	}
}

// TestParsePipelineArg pins the inline-parameter grammar.
func TestParsePipelineArg(t *testing.T) {
	opts, err := whatif.ParsePipelineArg("4x8")
	if err != nil || opts.Stages != 4 || opts.Microbatches != 8 || opts.Schedule != "" {
		t.Fatalf("4x8 → %+v, %v", opts, err)
	}
	opts, err = whatif.ParsePipelineArg("2x4:gpipe")
	if err != nil || opts.Stages != 2 || opts.Microbatches != 4 || opts.Schedule != whatif.ScheduleGPipe {
		t.Fatalf("2x4:gpipe → %+v, %v", opts, err)
	}
	for _, bad := range []string{"", "4", "x8", "4x8:mesh", "0x4", "4x0", "ax8"} {
		if _, err := whatif.ParsePipelineArg(bad); err == nil {
			t.Fatalf("ParsePipelineArg(%q) accepted", bad)
		}
	}
}

// TestParseStackPipelineDispatch pins registry dispatch of the
// parameterized form both CLIs and serve rely on.
func TestParseStackPipelineDispatch(t *testing.T) {
	opt, err := whatif.ParseStack("pipeline:4x8", whatif.OptParams{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Name() != "pipeline:4x8" {
		t.Fatalf("parsed name %q", opt.Name())
	}
	if core.OptScheduler(opt) == nil {
		t.Fatal("parsed pipeline carries no scheduler")
	}
	opt, err = whatif.ParseStack("amp+pipeline:2x4:gpipe", whatif.OptParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(opt.Name(), "pipeline:2x4:gpipe") {
		t.Fatalf("stacked name %q", opt.Name())
	}
	if _, err := whatif.ParseStack("pipeline:bogus", whatif.OptParams{}); err == nil {
		t.Fatal("bogus pipeline arg accepted")
	}
	if _, err := whatif.ParseStack("amp:3", whatif.OptParams{}); err == nil {
		t.Fatal("inline arg on a parameterless spec accepted")
	}
	if _, err := whatif.ParseStack("pipeline:2x4+pipeline:4x8", whatif.OptParams{}); err == nil {
		t.Fatal("duplicate pipeline elements accepted")
	}
	// Default build (no inline arg) uses the documented defaults.
	opt, err = whatif.ParseStack("pipeline", whatif.OptParams{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Name() != "pipeline:2x4" {
		t.Fatalf("default pipeline name %q", opt.Name())
	}
}

// TestPipelineValidation pins the input contract.
func TestPipelineValidation(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	cases := []whatif.PipelineOptions{
		{Stages: 1, Microbatches: 4},
		{Stages: 4, Microbatches: -1},
		{Stages: 4, Microbatches: 4, Schedule: "mesh"},
		{Stages: 10000, Microbatches: 4},
	}
	for _, opts := range cases {
		p := core.NewPatch(g)
		if err := whatif.PipelinePatch(p, opts); err == nil {
			t.Fatalf("PipelinePatch accepted %+v", opts)
		}
	}
	_ = time.Nanosecond
}

// TestPipelineSumsMemoMatchesScan pins the two ways PipelinePatch reads
// per-layer compute: an unedited patch takes the baseline's memoized
// sums, and one carrying a timing edit — here a no-op rewrite of one
// task's own duration — scans its effective view. Both must build the
// same skeleton and simulate bit-identically, on the first use of the
// memo and on a repeat.
func TestPipelineSumsMemoMatchesScan(t *testing.T) {
	for _, model := range []string{"resnet50", "gnmt"} {
		g := profile(t, model, framework.PyTorch)
		for _, opts := range []whatif.PipelineOptions{{Stages: 2, Microbatches: 4}, {Stages: 4, Microbatches: 8, Schedule: whatif.ScheduleGPipe}} {
			opt := whatif.OptPipeline(opts)
			sched := core.WithScheduler(core.OptScheduler(opt))
			for round := 0; round < 2; round++ {
				memo, scan := core.NewPatch(g), core.NewPatch(g)
				first := g.LayerPhaseIndex().GPUTasks()[0]
				scan.SetDuration(first, first.Duration)
				if err := opt.Apply(memo); err != nil {
					t.Fatal(err)
				}
				if err := opt.Apply(scan); err != nil {
					t.Fatal(err)
				}
				mres, err := memo.Simulate(sched)
				if err != nil {
					t.Fatal(err)
				}
				sres, err := scan.Simulate(sched)
				if err != nil {
					t.Fatal(err)
				}
				if mres.Makespan != sres.Makespan {
					t.Fatalf("%s %s: memo makespan %v != scan %v", model, opt.Name(), mres.Makespan, sres.Makespan)
				}
				for id := g.IDSpan(); id < memo.IDSpan(); id++ {
					mt, st := memo.Task(id), scan.Task(id)
					if mt.Duration != st.Duration || mres.Start[id] != sres.Start[id] {
						t.Fatalf("%s %s: task %q: memo (%v, start %v) != scan (%v, start %v)",
							model, opt.Name(), mt.Name, mt.Duration, mres.Start[id], st.Duration, sres.Start[id])
					}
				}
			}
		}
	}
}
