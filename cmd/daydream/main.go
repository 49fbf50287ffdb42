// Command daydream is the CLI front end to the Daydream reproduction:
// collect a trace of a training iteration, inspect the dependency graph,
// replay it, and ask what-if questions about optimizations.
//
// Usage:
//
//	daydream trace     -model resnet50 [-device 2080ti] [-framework pytorch] [-fp16] -o trace.json
//	daydream graph     -trace trace.json
//	daydream simulate  -trace trace.json
//	daydream breakdown -trace trace.json
//	daydream predict   -trace trace.json -opt amp+fusedadam \
//	                   [-machines 4 -gpus 2 -gbps 10] [-slice 819200] [-device v100] \
//	                   [-kprofile sgemm=1.5ms] [-scale-name conv -scale-factor 0.5]
//	daydream sweep     -trace trace.json [-workers 8] [-gbps 10,20,40] [-opt amp,amp+fusedadam]
//
// Flags before the command apply to any command: -cpuprofile FILE and
// -memprofile FILE write runtime/pprof CPU and heap profiles of its run.
//
// The -opt argument is a stack expression over the optimization
// registry (daydream.Optimizations): names joined with '+' compose via
// daydream.Stack (each name may appear once); run `daydream predict -h`
// for the generated list. Every optimization applies through the
// unified copy-on-write Patch surface, so predict and sweep evaluate
// timing-only and structural what-ifs alike without cloning the
// profiled graph; p3, which models two iterations, patches a Repeat of
// it. That includes what-ifs that carry a scheduling policy (vdnn's copy-stream
// ordering): schedulers are view-generic, so scheduled scenarios stay
// clone-free too.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"daydream"
	"daydream/internal/core"
	"daydream/internal/prof"
	"daydream/internal/trace"
)

func main() {
	top := flag.NewFlagSet("daydream", flag.ExitOnError)
	top.Usage = usage
	profile := prof.Register(top)
	top.Parse(os.Args[1:])
	args := top.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	stop, err := profile.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "daydream:", err)
		os.Exit(1)
	}
	err = run(args[0], args[1:])
	if perr := stop(); perr != nil && err == nil {
		err = perr
	}
	if errors.Is(err, errUnknownCommand) {
		fmt.Fprintln(os.Stderr, "daydream:", err)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daydream:", err)
		os.Exit(1)
	}
}

var errUnknownCommand = errors.New("unknown command")

// run runs one command with its arguments.
func run(cmd string, args []string) error {
	switch cmd {
	case "trace":
		return cmdTrace(args)
	case "graph":
		return cmdGraph(args)
	case "simulate":
		return cmdSimulate(args)
	case "breakdown":
		return cmdBreakdown(args)
	case "predict":
		return cmdPredict(args)
	case "sweep":
		return cmdSweep(args)
	case "export":
		return cmdExport(args)
	case "diagnose":
		return cmdDiagnose(args)
	case "memory":
		return cmdMemory(args)
	case "serve":
		return cmdServe(args)
	case "help":
		usage()
		return nil
	}
	return fmt.Errorf("%w %q", errUnknownCommand, cmd)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: daydream [-cpuprofile file] [-memprofile file] <command> [flags]

commands:
  trace      profile one training iteration and write the trace as JSON
  graph      build the dependency graph and print its statistics
  simulate   replay the trace through Algorithm 1 (fidelity check)
  breakdown  decompose the iteration into CPU-only/GPU-only/parallel time
  predict    apply a what-if optimization and predict the iteration time
  sweep      predict every optimization and a distributed grid concurrently
  export     convert a trace to Chrome Trace Event JSON (chrome://tracing)
  diagnose   attribute the critical path by resource and training phase
  memory     simulate the memory timeline: peak, attribution, max batch fit
  serve      run the long-lived HTTP prediction service

-cpuprofile and -memprofile write runtime/pprof CPU and heap profiles of
the command's run (read them with go tool pprof).`)
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	model := fs.String("model", "resnet50", "zoo model name")
	device := fs.String("device", "2080ti", "device preset: 2080ti, p4000, v100")
	fw := fs.String("framework", "pytorch", "framework dialect: pytorch, mxnet, caffe")
	fp16 := fs.Bool("fp16", false, "collect under mixed precision")
	seed := fs.Uint64("seed", 0, "jitter seed")
	out := fs.String("o", "trace.json", "output path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := daydream.Collect(daydream.CollectConfig{
		Model: *model, Device: *device, Framework: *fw,
		MixedPrecision: *fp16, Seed: *seed,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteJSON(f); err != nil {
		return err
	}
	fmt.Printf("traced %s on %s: iteration %v, %d activities, %d layer spans → %s\n",
		tr.Model, tr.Device, tr.IterationTime, len(tr.Activities), len(tr.LayerSpans), *out)
	return nil
}

func loadGraph(path string) (*trace.Trace, *daydream.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return daydream.LoadGraph(f)
}

func cmdGraph(args []string) error {
	fs := flag.NewFlagSet("graph", flag.ExitOnError)
	path := fs.String("trace", "trace.json", "trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, g, err := loadGraph(*path)
	if err != nil {
		return err
	}
	fmt.Printf("model=%s device=%s framework=%s precision=%s\n",
		tr.Model, tr.Device, tr.Framework, tr.Precision)
	fmt.Printf("tasks=%d edges=%d\n", g.NumTasks(), g.NumEdges())
	for _, tid := range g.Threads() {
		fmt.Printf("  %-14s %6d tasks\n", tid, len(g.ThreadTasks(tid)))
	}
	fmt.Printf("GPU tasks mapped to layers: %.1f%%\n", 100*core.MappedFraction(g))
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	path := fs.String("trace", "trace.json", "trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, g, err := loadGraph(*path)
	if err != nil {
		return err
	}
	got, err := g.PredictIteration()
	if err != nil {
		return err
	}
	diff := 100 * (float64(got-tr.IterationTime) / float64(tr.IterationTime))
	fmt.Printf("traced iteration:    %v\n", tr.IterationTime)
	fmt.Printf("simulated iteration: %v (%+.3f%%)\n", got, diff)
	return nil
}

func cmdBreakdown(args []string) error {
	fs := flag.NewFlagSet("breakdown", flag.ExitOnError)
	path := fs.String("trace", "trace.json", "trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, _, err := loadGraph(*path)
	if err != nil {
		return err
	}
	b := daydream.ComputeBreakdown(tr)
	total := b.Total()
	row := func(name string, d time.Duration) {
		fmt.Printf("%-10s %12v  %5.1f%%\n", name, d, 100*float64(d)/float64(total))
	}
	row("CPU+GPU", b.Parallel)
	row("CPU-only", b.CPUOnly)
	row("GPU-only", b.GPUOnly)
	fmt.Printf("%-10s %12v\n", "total", total)
	return nil
}

// optFlagUsage generates the -opt help text from the optimization
// registry, so the CLI's accepted names can never drift from the
// library's.
func optFlagUsage() string {
	var b strings.Builder
	b.WriteString("optimization stack expression: registry names joined with '+' (e.g. amp+fusedadam)\n")
	for _, s := range daydream.Optimizations() {
		fmt.Fprintf(&b, "\t%-12s %s [%s", s.Name, s.Summary, s.Footprint)
		if s.ConeFriendly {
			b.WriteString(", incremental")
		}
		b.WriteString("]")
		if s.Params != "" {
			fmt.Fprintf(&b, " — needs %s", s.Params)
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

// marketingName canonicalizes a device name (short preset or marketing
// form) to the marketing name, leaving unknown names untouched.
func marketingName(name string) string {
	presets := daydream.DeviceNames()
	for i, d := range daydream.Devices() {
		if presets[i] == name || d.Name == name {
			return d.Name
		}
	}
	return name
}

// timeoutContext builds a context for the -timeout flag: Background
// when the limit is zero (no deadline, no cancellation plumbing cost on
// the hot loop) and WithTimeout otherwise. The returned cancel is
// always safe to defer.
func timeoutContext(limit time.Duration) (context.Context, context.CancelFunc) {
	if limit <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), limit)
}

// parseGbpsList parses a comma-separated bandwidth list; Split always
// yields at least one element, so the result is never empty.
func parseGbpsList(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		gbps, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -gbps element %q: %v", part, err)
		}
		out = append(out, gbps)
	}
	return out, nil
}

// parseKernelProfile parses "name=duration[,name=duration...]" with Go
// duration syntax ("sgemm=1.5ms,relu=20us").
func parseKernelProfile(s string) (daydream.KernelProfile, error) {
	if s == "" {
		return nil, nil
	}
	p := daydream.KernelProfile{}
	for _, pair := range strings.Split(s, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -kprofile element %q (want name=duration)", pair)
		}
		d, err := time.ParseDuration(dur)
		if err != nil {
			return nil, fmt.Errorf("bad -kprofile duration in %q: %v", pair, err)
		}
		p[name] = d
	}
	return p, nil
}

// optParamFlags registers the topology-independent flags that feed
// OptimizationParams and returns a builder to run after parsing (each
// command registers its own topology flags). fromDevice supplies the
// profiled device (the trace's) for the upgrade what-if.
func optParamFlags(fs *flag.FlagSet) func(fromDevice string, topo daydream.Topology) (daydream.OptimizationParams, error) {
	device := fs.String("device", "v100", "target device for upgrade (preset or marketing name)")
	slice := fs.Int64("slice", 0, "P3 slice bytes (0 = 800KB default, <0 = plain FIFO)")
	kprofile := fs.String("kprofile", "", "kernel profile for kprofile: name=duration[,name=duration...]")
	scaleName := fs.String("scale-name", "", "kernel-name substring for scale")
	scaleFactor := fs.Float64("scale-factor", 0.5, "duration factor for scale")
	return func(fromDevice string, topo daydream.Topology) (daydream.OptimizationParams, error) {
		profile, err := parseKernelProfile(*kprofile)
		if err != nil {
			return daydream.OptimizationParams{}, err
		}
		return daydream.OptimizationParams{
			Topology:    topo,
			SliceBytes:  *slice,
			FromDevice:  fromDevice,
			ToDevice:    *device,
			Profile:     profile,
			ScaleTarget: *scaleName,
			ScaleFactor: *scaleFactor,
		}, nil
	}
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	path := fs.String("trace", "trace.json", "trace file")
	opt := fs.String("opt", "amp", optFlagUsage())
	machines := fs.Int("machines", 4, "machines (distributed/p3)")
	gpus := fs.Int("gpus", 1, "GPUs per machine (distributed/p3)")
	gbps := fs.Float64("gbps", 10, "network bandwidth in Gbps (distributed/p3)")
	timeout := fs.Duration("timeout", 0, "abort the prediction after this duration (0 = no limit)")
	withMem := fs.Bool("mem", false, "also report the simulated peak memory, baseline vs optimized")
	params := optParamFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, g, err := loadGraph(*path)
	if err != nil {
		return err
	}
	p, err := params(tr.Device, daydream.NewTopology(*machines, *gpus, *gbps))
	if err != nil {
		return err
	}
	o, err := daydream.ParseOptimization(*opt, p)
	if err != nil {
		return err
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	baseline, predicted, err := daydream.Compare(g, o, daydream.WithContext(ctx))
	if err != nil {
		return err
	}
	fmt.Printf("baseline iteration:  %v\n", baseline)
	fmt.Printf("predicted with %s (%s): %v (%.1f%% change)\n",
		o.Name(), o.Footprint(), predicted, 100*(1-float64(predicted)/float64(baseline)))
	if *withMem {
		_, baseProf, err := daydream.ProfileOptimization(g, nil, daydream.WithContext(ctx))
		if err != nil {
			return fmt.Errorf("memory profile: %w", err)
		}
		_, optProf, err := daydream.ProfileOptimization(g, o, daydream.WithContext(ctx))
		if err != nil {
			return fmt.Errorf("memory profile: %w", err)
		}
		basePeak, optPeak := baseProf.MaxPeak(), optProf.MaxPeak()
		fmt.Printf("baseline peak memory:  %.2f GB\n", gib(basePeak))
		fmt.Printf("predicted peak memory: %.2f GB (%+.1f%% change)\n",
			gib(optPeak), 100*(float64(optPeak)/float64(basePeak)-1))
	}
	return nil
}

// cmdSweep answers a whole battery of what-if questions from one trace
// in a single concurrent sweep. By default the battery is every
// registry optimization buildable from the flags (plus the
// amp+fusedadam stack and a distributed grid over machine counts and
// bandwidths); -opt replaces it with explicit comma-separated stack
// expressions.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	path := fs.String("trace", "trace.json", "trace file")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	gbpsList := fs.String("gbps", "10,20,40", "comma-separated bandwidths for the distributed grid")
	opt := fs.String("opt", "", "comma-separated stack expressions replacing the default battery (e.g. amp,amp+fusedadam)")
	machines := fs.Int("machines", 4, "machines for explicit -opt distributed/p3 expressions")
	gpus := fs.Int("gpus", 1, "GPUs per machine for explicit -opt distributed/p3 expressions")
	explain := fs.Bool("explain", false, "print the simulation tier each scenario dispatched to (replay/incremental/overlay/patch)")
	window := fs.Int("window", 0, "simulate with a round window: retire rounds older than the last N into per-round summaries instead of keeping every per-task start (0 = full materialization)")
	timeout := fs.Duration("timeout", 0, "abort the sweep after this duration (0 = no limit); timed-out scenarios become typed error rows")
	params := optParamFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, g, err := loadGraph(*path)
	if err != nil {
		return err
	}
	bandwidths, err := parseGbpsList(*gbpsList)
	if err != nil {
		return err
	}
	// Explicit distributed/p3 expressions use the first grid bandwidth.
	p, err := params(tr.Device, daydream.NewTopology(*machines, *gpus, bandwidths[0]))
	if err != nil {
		return err
	}

	scenarios := []daydream.Scenario{{Name: "baseline (replay)"}}
	if *opt != "" {
		// Explicit battery: one scenario per stack expression; names
		// come from the optimization values themselves.
		for _, expr := range strings.Split(*opt, ",") {
			o, err := daydream.ParseOptimization(strings.TrimSpace(expr), p)
			if err != nil {
				return err
			}
			scenarios = append(scenarios, daydream.Scenario{Opt: o})
		}
	} else {
		// Default battery: every single-GPU registry optimization the
		// flags can build (cluster grids come below; unbuildable ones —
		// e.g. kprofile without -kprofile — are skipped), plus the
		// composed amp+fusedadam stack.
		setFlags := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
		// Flags that feed each optional spec: a Build failure is only
		// worth a warning when the user actually set one of them —
		// otherwise the spec is quietly out of the default battery.
		specFlags := map[string][]string{
			"upgrade":  {"device"},
			"kprofile": {"kprofile"},
			"scale":    {"scale-name", "scale-factor"},
		}
		for _, spec := range daydream.Optimizations() {
			if spec.Cluster {
				continue
			}
			if spec.Name == "upgrade" && marketingName(p.FromDevice) == marketingName(p.ToDevice) {
				continue // the trace is already on the target device
			}
			o, err := spec.Build(p)
			if err != nil {
				for _, name := range specFlags[spec.Name] {
					if setFlags[name] {
						fmt.Fprintf(os.Stderr, "daydream: sweep: skipping %s: %v\n", spec.Name, err)
						break
					}
				}
				continue
			}
			scenarios = append(scenarios, daydream.Scenario{Opt: o})
		}
		scenarios = append(scenarios, daydream.Scenario{
			Opt: daydream.Stack(daydream.OptAMP(), daydream.OptFusedAdam()),
		})
		for _, gbps := range bandwidths {
			for _, cfg := range []struct{ machines, gpus int }{
				{2, 1}, {4, 1}, {2, 2}, {4, 2},
			} {
				topo := daydream.NewTopology(cfg.machines, cfg.gpus, gbps)
				scenarios = append(scenarios, daydream.Scenario{Opt: daydream.OptDistributed(topo)})
			}
		}
	}

	if *window > 0 {
		for i := range scenarios {
			scenarios[i].SimOptions = append(scenarios[i].SimOptions,
				daydream.WithRoundWindow(*window))
		}
	}

	start := time.Now()
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	sweepOpts := []daydream.SweepOption{
		daydream.SweepWorkers(*workers), daydream.SweepContext(ctx),
	}
	if *explain && *window > 0 {
		// -explain reads retired-round counts and window occupancy off
		// each scenario's SimResult, so windowed explain runs retain it.
		sweepOpts = append(sweepOpts, daydream.SweepKeepSims())
	}
	// Per-scenario failures (e.g. vdnn on a model without offloadable
	// conv activations) are reported as rows, not a battery abort: the
	// sweep still returns every other scenario's prediction — and a
	// -timeout expiry turns the unfinished tail into typed rows.
	results, sweepErr := daydream.Sweep(g, scenarios, sweepOpts...)
	if results == nil {
		return sweepErr
	}
	fmt.Printf("traced iteration: %v — %d scenarios in %v\n\n",
		tr.IterationTime, len(scenarios), time.Since(start).Round(time.Millisecond))
	if *explain {
		fmt.Printf("%-34s %14s %10s  %s\n", "scenario", "predicted", "change", "tier")
	} else {
		fmt.Printf("%-34s %14s %10s\n", "scenario", "predicted", "change")
	}
	for _, r := range results {
		if r.Err != nil {
			fmt.Printf("%-34s skipped: %v\n", r.Name, r.Err)
			continue
		}
		fmt.Printf("%-34s %14v %+9.1f%%",
			r.Name, r.Value, 100*(float64(r.Value)/float64(tr.IterationTime)-1))
		if *explain {
			fmt.Printf("  %s", r.Tier)
			if r.Sim != nil && r.Sim.Windowed() {
				fmt.Printf("  window[retired=%d occupancy=%d]",
					r.Sim.RetiredRounds(), r.Sim.WindowOccupancy())
			}
			if p := pipelineRowParams(r.Name); p != "" {
				fmt.Printf("  %s", p)
			}
		}
		fmt.Println()
	}
	return nil
}

// pipelineRowParams decodes a pipeline stack element's inline grid for
// -explain rows ("pipeline:4x8:gpipe" → "stages=4 microbatches=8
// schedule=gpipe"); non-pipeline scenario names yield "".
func pipelineRowParams(name string) string {
	for _, elem := range strings.Split(name, "+") {
		arg, ok := strings.CutPrefix(elem, "pipeline:")
		if !ok {
			continue
		}
		grid, sched, has := strings.Cut(arg, ":")
		var s, m int
		if _, err := fmt.Sscanf(grid, "%dx%d", &s, &m); err != nil {
			continue
		}
		if !has {
			sched = "1f1b"
		}
		return fmt.Sprintf("stages=%d microbatches=%d schedule=%s", s, m, sched)
	}
	return ""
}

func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ExitOnError)
	path := fs.String("trace", "trace.json", "trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, g, err := loadGraph(*path)
	if err != nil {
		return err
	}
	byResource, byPhase, err := daydream.Diagnose(g)
	if err != nil {
		return err
	}
	fmt.Printf("critical path of one %s iteration (%v):\n", tr.Model, tr.IterationTime)
	printAttribution := func(title string, as []daydream.PathAttribution) {
		fmt.Printf("\nby %s:\n", title)
		for _, a := range as {
			fmt.Printf("  %-14s %12v  (%d tasks)\n", a.Label, a.Time, a.Tasks)
		}
	}
	printAttribution("execution resource", byResource)
	printAttribution("training phase", byPhase)
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	path := fs.String("trace", "trace.json", "trace file")
	out := fs.String("o", "trace.chrome.json", "output path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, _, err := loadGraph(*path)
	if err != nil {
		return err
	}
	o, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer o.Close()
	if err := tr.WriteChromeTrace(o); err != nil {
		return err
	}
	fmt.Printf("wrote %s — open in chrome://tracing or https://ui.perfetto.dev\n", *out)
	return nil
}
