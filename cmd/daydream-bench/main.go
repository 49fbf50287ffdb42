// Command daydream-bench regenerates the paper's evaluation: every table
// and figure of §6 (Figures 5–10, §6.4, Tables 1–2), printed as aligned
// text tables with paper-vs-measured notes.
//
// Usage:
//
//	daydream-bench                         # run everything, in paper order
//	daydream-bench -list                   # list experiment IDs
//	daydream-bench -run fig8               # run experiments whose ID contains "fig8"
//	daydream-bench -micro                  # pipeline micro-benchmarks → BENCH.json
//	daydream-bench -micro -against BENCH.json  # …and fail on >25% regression
//	daydream-bench -micro -cpuprofile cpu.prof -memprofile mem.prof  # …profiled
//
// With -micro, the pipeline stages (trace collection, trace decoding,
// graph construction, simulation, clone, overlay-path and
// stacked-overlay (AMP+FusedAdam via one Stack value) scenario
// evaluation, a structural patch scenario (Algorithm-6 Distributed on
// bert-large as copy-on-write patch deltas), the same scenario under a
// custom Scheduler run view-generically over the patch, the
// incremental tier (a warm IncrementalSim re-simulating a single-task
// delta's affected cone, and the per-layer Figure-5 grid swept over
// one shared baseline), Figure-8-sized concurrent sweeps, a P3
// bandwidth grid over one shared Repeat, and the serving path) are measured with testing.Benchmark and written as
// machine-readable JSON (ns/op,
// bytes/op, allocs/op, and scenarios/sec for the sweep benchmarks), so
// the performance trajectory is tracked across changes. With -against,
// the fresh numbers are compared to a committed baseline file and the
// run fails when any shared benchmark regresses beyond -tolerance
// (default 25%) in ns/op or allocs/op — the CI trajectory gate.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"daydream"
	"daydream/internal/core"
	"daydream/internal/exp"
	"daydream/internal/prof"
	"daydream/internal/sweep"
	"daydream/internal/trace"
	"daydream/internal/whatif"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "only run experiments whose ID contains this substring")
	micro := flag.Bool("micro", false, "run pipeline micro-benchmarks and write them as JSON")
	benchJSON := flag.String("benchjson", "BENCH.json", "output path for -micro results")
	against := flag.String("against", "", "baseline BENCH.json to compare -micro results to (fails on regression)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional regression vs -against before failing")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit); expiry surfaces as a typed cancellation error")
	profile := prof.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	stop, err := profile.Start()
	if err == nil {
		if *micro {
			err = runMicro(*benchJSON, *against, *tolerance, *timeout)
		} else {
			err = runExperiments(*run, *timeout)
		}
		if perr := stop(); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daydream-bench:", err)
		os.Exit(1)
	}
}

// runExperiments runs, in paper order, every experiment whose ID
// contains run, printing its tables.
func runExperiments(run string, timeout time.Duration) error {
	ctx, cancel := timeoutContext(timeout)
	defer cancel()
	ran := 0
	for _, e := range exp.All() {
		if run != "" && !strings.Contains(e.ID, run) {
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			return core.ContextError(cerr)
		}
		start := time.Now()
		tables, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			if err := t.Format(os.Stdout); err != nil {
				return err
			}
		}
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches -run %q (try -list)", run)
	}
	return nil
}

// timeoutContext builds a context for the -timeout flag: Background
// when the limit is zero (no deadline, and the benchmarks keep the
// nil-context fast path) and WithTimeout otherwise. The returned cancel
// is always safe to defer.
func timeoutContext(limit time.Duration) (context.Context, context.CancelFunc) {
	if limit <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), limit)
}

// microResult is one benchmark line of BENCH.json.
type microResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// ScenariosPerSec is sweep throughput, reported by the sweep
	// benchmarks so the overlay win stays visible in the trajectory.
	ScenariosPerSec float64 `json:"scenarios_per_sec,omitempty"`
}

// benchSweepWorkers pins the sweep benchmarks' worker count so their
// allocs/op do not vary with the machine's GOMAXPROCS.
const benchSweepWorkers = 4

// benchSched is the earliest-start policy forced onto the
// custom-scheduler slice path (the default-policy fast path only
// matches core.EarliestStart itself), so the scheduled benchmarks
// measure the view-generic scheduled simulator.
type benchSched struct{ core.EarliestStart }

// benchFile is the BENCH.json schema.
type benchFile struct {
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Workload   string        `json:"workload"`
	Benchmarks []microResult `json:"benchmarks"`
}

// runMicro measures the pipeline stages on the largest workload plus
// the scenario-evaluation paths and sweeps, writes the JSON report, and
// (when against is set) gates on regressions vs the committed baseline.
func runMicro(path, against string, tolerance float64, timeout time.Duration) error {
	ctx, cancel := timeoutContext(timeout)
	defer cancel()
	// With no -timeout the sweeps run context-free, so the benchmarked
	// numbers keep the nil-context fast path; with one, the deadline
	// rides the sweep's cancellation plumbing and aborts mid-sweep.
	sweepOpts := []sweep.Option{sweep.Workers(benchSweepWorkers)}
	if timeout > 0 {
		sweepOpts = append(sweepOpts, sweep.WithContext(ctx))
	}
	const workload = "bert-large"
	tr, err := daydream.Collect(daydream.CollectConfig{Model: workload})
	if err != nil {
		return err
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		return err
	}
	fig8Scenarios, err := fig8SizedScenarios()
	if err != nil {
		return err
	}
	overlayScenarios := make([]sweep.Scenario, 64)
	for i := range overlayScenarios {
		overlayScenarios[i] = sweep.Scenario{
			Name: fmt.Sprintf("amp%d", i),
			Opt:  daydream.OptAMP(),
		}
	}
	// The incremental benchmarks' single-task delta lands on the task
	// that finishes last on the baseline schedule, so the affected cone
	// is real (the makespan moves) yet sublinear in the graph.
	coldRes, err := g.Simulate()
	if err != nil {
		return err
	}
	var critTask *core.Task
	for _, u := range g.Tasks() {
		if coldRes.Finish(u) == coldRes.Makespan {
			critTask = u
		}
	}
	layerScenarios := exp.AMPLayerScenarios(g)
	dtr, err := daydream.Collect(daydream.CollectConfig{Model: "densenet121"})
	if err != nil {
		return err
	}
	densenet, err := daydream.BuildGraph(dtr)
	if err != nil {
		return err
	}
	var pipelineScenarios []sweep.Scenario
	for _, stages := range []int{2, 4} {
		for _, mb := range []int{2, 4, 8} {
			for _, sched := range []string{whatif.Schedule1F1B, whatif.ScheduleGPipe} {
				pipelineScenarios = append(pipelineScenarios, sweep.Scenario{
					Opt: whatif.OptPipeline(whatif.PipelineOptions{
						Stages: stages, Microbatches: mb, Schedule: sched,
					}),
				})
			}
		}
	}

	rtr, err := daydream.Collect(daydream.CollectConfig{Model: "resnet50"})
	if err != nil {
		return err
	}
	resnet, err := daydream.BuildGraph(rtr)
	if err != nil {
		return err
	}
	gtr, err := daydream.Collect(daydream.CollectConfig{Model: "gnmt"})
	if err != nil {
		return err
	}
	gnmt, err := daydream.BuildGraph(gtr)
	if err != nil {
		return err
	}
	rebindBases := []*daydream.Graph{g, resnet, densenet, gnmt}
	var p3Scenarios []sweep.Scenario
	for _, gbps := range []float64{2, 4, 6, 8, 10} {
		p3Scenarios = append(p3Scenarios, sweep.Scenario{Opt: daydream.OptP3(daydream.NewTopology(4, 1, gbps), 0)})
	}
	p3Opts := append(slices.Clip(sweepOpts), sweep.Workers(2)) // the later Workers wins

	// The serving benchmarks go through a real localhost listener so
	// BENCH.json tracks the whole request path, not just the simulator.
	var trBuf bytes.Buffer
	if err := tr.WriteJSON(&trBuf); err != nil {
		return err
	}
	sb, err := startServeBench(trBuf.Bytes(), benchSweepWorkers)
	if err != nil {
		return err
	}
	defer sb.close()

	benches := []struct {
		name      string
		scenarios int // >0: sweep benchmark, reports scenarios/sec
		fn        func(b *testing.B)
	}{
		{"CollectTrace", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := daydream.Collect(daydream.CollectConfig{Model: workload}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ReadTraceJSON", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := trace.ReadJSON(bytes.NewReader(trBuf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"BuildGraph", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := daydream.BuildGraph(tr); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"RepeatGraph", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.Repeat(2); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Simulate", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.PredictIteration(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SimulateScratch", 0, func(b *testing.B) {
			scratch := core.NewSimScratch()
			for i := 0; i < b.N; i++ {
				if _, err := g.PredictIteration(core.WithScratch(scratch)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Clone", 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Clone()
			}
		}},
		// One duration-only scenario (Algorithm-3 AMP) end to end
		// through a reused patch's timing tier.
		{"OverlayScenario", 0, func(b *testing.B) {
			amp := daydream.OptAMP()
			scratch := core.NewSimScratch()
			p := daydream.NewPatch(g)
			buf := &daydream.SimResult{}
			for i := 0; i < b.N; i++ {
				p.Reset(g)
				if err := amp.Apply(p); err != nil {
					b.Fatal(err)
				}
				if _, err := p.Simulate(core.WithScratch(scratch), core.WithResultBuffer(buf)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The same shape as OverlayScenario but through a warm
		// IncrementalSim: a single-task duration delta re-simulates only
		// the affected cone of the cached schedule instead of replaying
		// all ~12.7k tasks — the incremental-vs-overlay headline.
		{"IncrementalScenario", 0, func(b *testing.B) {
			sim, err := daydream.NewIncrementalSim(g)
			if err != nil {
				b.Fatal(err)
			}
			p := daydream.NewPatch(g)
			buf := &daydream.SimResult{}
			base := critTask.Duration
			for i := 0; i < b.N; i++ {
				p.Reset(g)
				p.SetDuration(critTask, base+time.Duration(1+i%2)*time.Microsecond)
				if _, err := sim.ReSimulate(p, core.WithResultBuffer(buf)); err != nil {
					b.Fatal(err)
				}
				if sim.LastFellBack() {
					b.Fatal("single-task delta fell back to cold simulation")
				}
			}
		}},
		// A composed what-if (AMP+FusedAdam as one Stack value) end to
		// end through a reused patch — the trajectory gate's eye on the
		// stacked clone-free path.
		{"StackedOverlayScenario", 0, func(b *testing.B) {
			stacked := daydream.Stack(daydream.OptAMP(), daydream.OptFusedAdam())
			scratch := core.NewSimScratch()
			p := daydream.NewPatch(g)
			buf := &daydream.SimResult{}
			for i := 0; i < b.N; i++ {
				p.Reset(g)
				if err := stacked.Apply(p); err != nil {
					b.Fatal(err)
				}
				if _, err := p.Simulate(core.WithScratch(scratch), core.WithResultBuffer(buf)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// AMP on four baselines in turn through one reused patch: each
		// op rebinds the patch to the next baseline, which reads that
		// graph's memoized compiled form instead of rebuilding it.
		{"PatchRebind", 0, func(b *testing.B) {
			amp := daydream.OptAMP()
			scratch := core.NewSimScratch()
			p := daydream.NewPatch(g)
			buf := &daydream.SimResult{}
			for i := 0; i < b.N; i++ {
				p.Reset(rebindBases[i%len(rebindBases)])
				if err := amp.Apply(p); err != nil {
					b.Fatal(err)
				}
				if _, err := p.Simulate(core.WithScratch(scratch), core.WithResultBuffer(buf)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// One structural scenario (Algorithm-6 Distributed, 4×2 @
		// 10Gbps) end to end through copy-on-write patch deltas.
		{"StructuralPatchScenario", 0, func(b *testing.B) {
			opt := daydream.OptDistributed(daydream.NewTopology(4, 2, 10))
			scratch := core.NewSimScratch()
			p := daydream.NewPatch(g)
			buf := &daydream.SimResult{}
			for i := 0; i < b.N; i++ {
				p.Reset(g)
				if err := opt.Apply(p); err != nil {
					b.Fatal(err)
				}
				if _, err := p.Simulate(core.WithScratch(scratch), core.WithResultBuffer(buf)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The same structural scenario under a custom (non-default)
		// Scheduler, run view-generically over the composite patch.
		{"ScheduledPatchScenario", 0, func(b *testing.B) {
			opt := daydream.OptDistributed(daydream.NewTopology(4, 2, 10))
			scratch := core.NewSimScratch()
			p := daydream.NewPatch(g)
			buf := &daydream.SimResult{}
			for i := 0; i < b.N; i++ {
				p.Reset(g)
				if err := opt.Apply(p); err != nil {
					b.Fatal(err)
				}
				if _, err := p.Simulate(core.WithScratch(scratch), core.WithResultBuffer(buf), core.WithScheduler(benchSched{})); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// vDNN (Algorithm 10) on densenet121 under its carried
		// copy-stream policy, a keyed order on the heap loop: its copies
		// queue behind one another on the copy channel, so most of them
		// wait parked on that busy thread.
		{"VDNNScheduledScenario", 0, func(b *testing.B) {
			opt := whatif.OptVDNN(whatif.VDNNOptions{})
			sched := core.OptScheduler(opt)
			scratch := core.NewSimScratch()
			p := daydream.NewPatch(densenet)
			buf := &daydream.SimResult{}
			for i := 0; i < b.N; i++ {
				p.Reset(densenet)
				if err := opt.Apply(p); err != nil {
					b.Fatal(err)
				}
				if _, err := p.Simulate(core.WithScratch(scratch), core.WithResultBuffer(buf), core.WithScheduler(sched)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The sweep benchmarks pin their worker count so allocs/op
		// (per-worker scratch/overlay/result state) stay comparable
		// across machines with different GOMAXPROCS — the trajectory
		// gate depends on that.
		{"OverlaySweep64", 64, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Run(g, overlayScenarios, sweepOpts...); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The ampgrid experiment's shape: one timing-only scenario per
		// BERT_Large DNN layer, all over one shared baseline — the
		// sweep's worker-owned incremental tier carries all but each
		// worker's warm-up scenario.
		{"Fig5IncrementalSweep", len(layerScenarios), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Run(g, layerScenarios, sweepOpts...); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Fig8Sweep76", 76, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Run(nil, fig8Scenarios, sweepOpts...); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The pipegrid experiment's shape: every (stages × microbatches
		// × schedule) partitioning as a structural patch scenario under
		// its carried 1F1B/GPipe scheduler, all over one shared
		// baseline.
		{"PipelineSweep", len(pipelineScenarios), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Run(g, pipelineScenarios, sweepOpts...); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The p3bw grid's shape: P3 at five NIC rates over one resnet50
		// profile on two workers. The call builds one Repeat of the
		// profile that every row patches, and the slices queued on the
		// parameter-server channels park on their busy threads.
		{"P3Sweep", len(p3Scenarios), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Run(resnet, p3Scenarios, p3Opts...); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// A Repeat(1000)-scale pipeline simulation in windowed mode:
		// 1000 microbatches through 4 stages under 1F1B with an 8-round
		// window. Beyond the ns/op trajectory this pins the window's
		// memory contract on every run — all but the last 8 rounds must
		// retire, and the per-task start storage must stay O(window)
		// (1F1B's admission cap bounds the skew), not O(microbatches).
		{"WindowedRepeatSimulate", 0, func(b *testing.B) {
			opt := whatif.OptPipeline(whatif.PipelineOptions{Stages: 4, Microbatches: 1000})
			p := daydream.NewPatch(g)
			if err := opt.Apply(p); err != nil {
				b.Fatal(err)
			}
			const stages, rounds, window = 4, 1000, 8
			perRound := (p.NumTasks() - g.NumTasks() + rounds - 1) / rounds
			budget := g.NumTasks() + (window+2*stages)*2*perRound
			sched := core.OptScheduler(opt)
			scratch := core.NewSimScratch()
			buf := &daydream.SimResult{}
			for i := 0; i < b.N; i++ {
				res, err := p.Simulate(core.WithScratch(scratch), core.WithResultBuffer(buf),
					core.WithScheduler(sched), core.WithRoundWindow(window))
				if err != nil {
					b.Fatal(err)
				}
				if got := res.RetiredRounds(); got != rounds-window {
					b.Fatalf("retired %d rounds, want %d", got, rounds-window)
				}
				if occ := res.WindowOccupancy(); occ > budget {
					b.Fatalf("window occupancy %d exceeds O(window) budget %d", occ, budget)
				}
			}
		}},
		// The memory-timeline post-pass alone: sweep the baseline's
		// alloc/free events over the already-computed cold schedule.
		// This is the marginal cost every tier pays to add a memory
		// profile to an existing simulation.
		{"MemoryTimeline", 0, func(b *testing.B) {
			ann, err := daydream.AnnotateMemory(g)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := daydream.ComputeMemoryProfile(g, coldRes, ann); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// A full memory-aware what-if end to end: vDNN_all surgery as
		// patch deltas, simulation under the carried copy-stream
		// scheduler, and the profile with the offload/prefetch tensor
		// rewrite — both prediction axes from one simulation.
		{"MemoryProfileScenario", 0, func(b *testing.B) {
			opt := whatif.OptVDNN(whatif.VDNNOptions{
				OffloadLayer: func(gr trace.GradientInfo) bool { return gr.ActBytes > 0 },
			})
			for i := 0; i < b.N; i++ {
				if _, _, err := daydream.ProfileOptimization(g, opt); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The capacity inversion: each op answers "largest resnet50
		// batch under 8 whose simulated peak fits a 2080 Ti", tracing
		// and profiling every candidate through the sweep tier.
		{"MaxBatchFit", 0, func(b *testing.B) {
			build := func(batch int) (*daydream.Graph, error) {
				m, err := daydream.ModelByNameAtBatch("resnet50", batch)
				if err != nil {
					return nil, err
				}
				btr, err := daydream.Collect(daydream.CollectConfig{CustomModel: m})
				if err != nil {
					return nil, err
				}
				return daydream.BuildGraph(btr)
			}
			for i := 0; i < b.N; i++ {
				if _, err := daydream.MaxBatchFit(11<<30, build, nil, 8); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// One HTTP predict round-trip per op — a never-seen scenario
		// (cache miss, real simulation) vs a repeated one (cache hit) —
		// and an 8-row sweep grid per op. scenarios/sec is requests/sec
		// for the predicts and rows/sec for the grid.
		{"ServePredict", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := sb.predictUnique(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ServePredictCached", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := sb.predictCached(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ServeSweep", sweepGridSize, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := sb.sweepGrid(); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	out := benchFile{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   workload,
	}
	for _, bb := range benches {
		if cerr := ctx.Err(); cerr != nil {
			return core.ContextError(cerr)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bb.fn(b)
		})
		mr := microResult{
			Name:        bb.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if bb.scenarios > 0 && mr.NsPerOp > 0 {
			mr.ScenariosPerSec = float64(bb.scenarios) * 1e9 / mr.NsPerOp
		}
		out.Benchmarks = append(out.Benchmarks, mr)
		fmt.Printf("%-16s %12.0f ns/op %12d B/op %8d allocs/op",
			mr.Name, mr.NsPerOp, mr.BytesPerOp, mr.AllocsPerOp)
		if mr.ScenariosPerSec > 0 {
			fmt.Printf("  %8.0f scenarios/s", mr.ScenariosPerSec)
		}
		fmt.Println()
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if against != "" {
		return checkTrajectory(against, &out, tolerance)
	}
	return nil
}

// checkTrajectory compares fresh micro results to a committed baseline
// file and errors when any benchmark present in both regresses beyond
// the tolerance in ns/op or allocs/op, or when a baseline benchmark is
// missing from the fresh run entirely — a silently dropped benchmark
// would otherwise read as "no regression".
func checkTrajectory(againstPath string, fresh *benchFile, tolerance float64) error {
	raw, err := os.ReadFile(againstPath)
	if err != nil {
		return fmt.Errorf("trajectory baseline: %w", err)
	}
	var base benchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("trajectory baseline %s: %w", againstPath, err)
	}
	byName := make(map[string]microResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	freshNames := make(map[string]bool, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		freshNames[b.Name] = true
	}
	var regressions []string
	for _, was := range base.Benchmarks {
		if !freshNames[was.Name] {
			regressions = append(regressions, fmt.Sprintf(
				"%s: present in baseline but missing from this run", was.Name))
		}
	}
	for _, now := range fresh.Benchmarks {
		was, ok := byName[now.Name]
		if !ok {
			continue // new benchmark: no baseline yet
		}
		if was.NsPerOp > 0 && now.NsPerOp > was.NsPerOp*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f (+%.0f%%)",
				now.Name, now.NsPerOp, was.NsPerOp, 100*(now.NsPerOp/was.NsPerOp-1)))
		}
		// Allocation counts are machine-independent: hold them to the
		// same tolerance (with +2 absolute slack for tiny counts).
		if limit := float64(was.AllocsPerOp)*(1+tolerance) + 2; float64(now.AllocsPerOp) > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d allocs/op vs baseline %d",
				now.Name, now.AllocsPerOp, was.AllocsPerOp))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench trajectory regressed beyond %.0f%% vs %s:\n  %s",
			100*tolerance, againstPath, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("trajectory OK vs %s (tolerance %.0f%%)\n", againstPath, 100*tolerance)
	return nil
}

// fig8SizedScenarios builds the full Figure-8 prediction grid — 4 models
// × 19 distributed configurations = 76 scenarios over per-model profiles.
func fig8SizedScenarios() ([]sweep.Scenario, error) {
	var scenarios []sweep.Scenario
	for _, zoo := range []string{"resnet50", "gnmt", "bert-base", "bert-large"} {
		tr, err := daydream.Collect(daydream.CollectConfig{Model: zoo})
		if err != nil {
			return nil, err
		}
		g, err := daydream.BuildGraph(tr)
		if err != nil {
			return nil, err
		}
		for _, topo := range exp.Fig8Grid() {
			sc := exp.Fig8Scenario(g, topo)
			sc.Name = zoo + " " + sc.Name
			scenarios = append(scenarios, sc)
		}
	}
	return scenarios, nil
}
