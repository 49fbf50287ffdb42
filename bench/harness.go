package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// processStart approximates the process's start: set-up time is measured
// from it, and spans are timed relative to it.
var processStart = time.Now()

// Every run warms up for the same time and sets up the same number of
// times, so that two saved results always compare like with like; only
// the tests shorten them.
const (
	warmup = 2 * time.Second
	setups = 5
	// specPath is the benchmark description whose bounds -compare applies,
	// relative to the repository root the benchmark runs from.
	specPath = "BENCHMARK.json"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	// measure is the length of each timed phase; warmup runs first and
	// is not timed.
	measure time.Duration
	warmup  time.Duration
	// setups is how many times the workload is set up; setup_s is the
	// median of their durations and the last one is measured.
	setups     int
	trace      bool
	traceDir   string
	cpuprofile string
	// tamper, when non-nil, rewrites the first answer a workload records
	// before it is verified. Tests use it to show the verifier catches a
	// wrong answer.
	tamper func(int64) int64
}

// workloads lists the workload names in presentation order.
var workloads = []string{"ingest", "predict", "sweep", "serve"}

// workload is one named input set, set up from the seed.
type workload interface {
	// run drives the workload for d and returns what it measured. When
	// traced, spans are recorded around every call into a layer.
	run(d time.Duration, traced bool) phase
	// verify checks every answer recorded so far against one computed
	// another way, outside any timed phase. It returns the number of
	// answers that differ and a digest of the reference answers for the
	// workload's whole input set.
	verify() (mismatches int, digest string, err error)
	// trail lists the keys of the ops run so far, in order.
	trail() []string
	close()
}

func newWorkload(cfg *config) (workload, error) {
	switch cfg.workload {
	case "ingest":
		return newIngest(cfg)
	case "predict":
		return newPredict(cfg)
	case "sweep":
		return newSweep(cfg)
	case "serve":
		return newServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", cfg.workload, strings.Join(workloads, ", "))
}

// phase is what one timed phase measured.
type phase struct {
	attempted int
	failed    int
	// done ops over elapsed is the closed-loop throughput.
	done    int
	elapsed time.Duration
	// lat holds one latency per op, grid call or closed-loop request.
	lat     []time.Duration
	tracers []*tracer
	// layer holds per-layer metrics the workload counts itself.
	layer map[string]float64
}

func (p *phase) opsPerSec() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.done) / p.elapsed.Seconds()
}

// closedLoop calls op back to back until d has passed, recording each
// call's latency. op reports how many ops the call attempted and how
// many of those failed.
func closedLoop(d time.Duration, op func() (attempted, failed int)) phase {
	var ph phase
	start := time.Now()
	deadline := start.Add(d)
	for t0 := start; t0.Before(deadline); t0 = time.Now() {
		n, f := op()
		ph.lat = append(ph.lat, time.Since(t0))
		ph.attempted += n
		ph.failed += f
	}
	ph.elapsed = time.Since(start)
	ph.done = ph.attempted - ph.failed
	return ph
}

// percentileMS returns the nearest-rank p-quantile of lat in milliseconds.
func percentileMS(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := slices.Clone(lat)
	slices.Sort(s)
	k := max(int(math.Ceil(p*float64(len(s))))-1, 0)
	return float64(s[k]) / 1e6
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// digest hashes reference answers, one per line, into a short hex string.
func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// result is everything one run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	samples   int
	digest    string
	trail     []string
	// metrics holds the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one.
	metrics map[string]float64
}

// runBench sets the workload up, warms it, times it, verifies its answers
// and computes the run's metrics.
func runBench(cfg config) (*result, error) {
	var (
		w          workload
		setupTimes []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
			// Collect the previous set-up's garbage outside the timed span,
			// so that every set-up starts from a heap as clean as the first
			// one's and none pays for another's garbage.
			runtime.GC()
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		var err error
		if w, err = newWorkload(&cfg); err != nil {
			return nil, fmt.Errorf("set up %s: %w", cfg.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer w.close()

	warm := w.run(cfg.warmup, false)
	stopProfile, err := startCPUProfile(cfg.cpuprofile)
	if err != nil {
		return nil, err
	}
	plain := w.run(cfg.measure, false)
	var traced phase
	if cfg.trace {
		traced = w.run(cfg.measure, true)
	}
	if err := stopProfile(); err != nil {
		return nil, err
	}
	// The high-water mark is read before verification, whose oracles and
	// ground-truth runs would otherwise set it.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	mismatches, dig, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("verify %s: %w", cfg.workload, err)
	}
	res := &result{
		attempted: warm.attempted + plain.attempted + traced.attempted,
		failed:    warm.failed + plain.failed + traced.failed + mismatches,
		samples:   len(plain.lat),
		digest:    dig,
		trail:     w.trail(),
	}
	res.correct = res.failed == 0

	if cfg.trace {
		overhead := 0.0
		if base := plain.opsPerSec(); base > 0 {
			overhead = 1 - traced.opsPerSec()/base
		}
		res.metrics = layerMetrics(aggregate(traced.tracers...), traced.layer, overhead)
		if cfg.traceDir != "" {
			if err := writeTraceFiles(cfg.traceDir, cfg.workload, overhead, traced.tracers); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	predErr, err := predErrPct()
	if err != nil {
		return nil, fmt.Errorf("prediction error: %w", err)
	}
	_, setup, _ := quartiles(setupTimes)
	res.metrics = map[string]float64{
		"setup_s":        setup,
		"ops_per_s":      plain.opsPerSec(),
		"latency_ms_p50": percentileMS(plain.lat, 0.50),
		"latency_ms_p99": percentileMS(plain.lat, 0.99),
		"peak_rss_mb":    rss,
		"pred_err_pct":   predErr,
	}
	return res, nil
}

// startCPUProfile profiles the timed phases into path, when set.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// layerMetricNames lists every per-layer metric; a workload that does not
// exercise a layer reports 0 for it.
var layerMetricNames = []string{
	"trace.read_json.ms", "trace.read_json.allocs",
	"core.build.ms", "core.build.allocs",
	"core.validate.ms", "core.simulate.baseline.ms", "core.layer_index.ms",
	"ingest.unattributed.share",
	"whatif.parse.ms",
	"whatif.apply.timing.ms", "whatif.apply.structural.ms", "whatif.apply.scheduled.ms",
	"core.simulate.timing.ms", "core.simulate.structural.ms", "core.simulate.scheduled.ms",
	"core.sim_ns_per_task", "core.tasks_per_op",
	"whatif.measure.ms", "mem.profile.ms", "encode.ms",
	"predict.allocs_per_op", "predict.unattributed.share",
	"sweep.kcurve.ms", "sweep.fig8.ms", "sweep.pipegrid.ms", "sweep.p3bw.ms",
	"sweep.tier.incremental.share", "sweep.tier.overlay.share",
	"sweep.tier.patch.share", "sweep.tier.clone.share",
	"serve.upload.ms_p50", "serve.predict_miss.ms_p50", "serve.predict_hit.ms_p50",
	"serve.sweep.ms_p50", "serve.memory.ms_p50",
	"serve.cache_hit.ratio", "serve.coalesced.count", "serve.rejected.count", "serve.evicted.count",
	"loadgen.late_ms_p99",
	"trace_overhead.share",
}

// layerMetrics derives the per-layer metrics from a traced phase's spans
// and the counts the workload kept.
func layerMetrics(agg map[string]*spanStats, counted map[string]float64, overhead float64) map[string]float64 {
	// Span-timed metrics are the mean time (or, where counted, heap
	// objects) per call of the span the metric is named after.
	m := make(map[string]float64, len(layerMetricNames))
	for _, name := range layerMetricNames {
		switch {
		case strings.HasSuffix(name, ".ms"):
			m[name] = agg[strings.TrimSuffix(name, ".ms")].meanMS()
		case strings.HasSuffix(name, ".allocs"):
			m[name] = agg[strings.TrimSuffix(name, ".allocs")].meanAllocs()
		default:
			m[name] = 0
		}
	}
	m["ingest.unattributed.share"] = agg["ingest.op"].selfShare()
	m["predict.unattributed.share"] = agg["predict.op"].selfShare()
	m["predict.allocs_per_op"] = agg["predict.op"].meanAllocs()
	for name, v := range counted {
		m[name] = v
	}
	m["trace_overhead.share"] = overhead
	return m
}

// unitOf names a metric's unit.
func unitOf(name string) string {
	switch {
	case name == "setup_s":
		return "s"
	case name == "ops_per_s":
		return "1/s"
	case name == "peak_rss_mb":
		return "MB"
	case name == "pred_err_pct":
		return "%"
	case name == "core.sim_ns_per_task":
		return "ns"
	case strings.HasSuffix(name, ".share"), strings.HasSuffix(name, ".ratio"):
		return "fraction"
	case strings.HasPrefix(name, "latency_ms_"), strings.HasSuffix(name, ".ms"),
		strings.Contains(name, ".ms_p"), strings.Contains(name, "late_ms_"):
		return "ms"
	}
	return "count"
}
