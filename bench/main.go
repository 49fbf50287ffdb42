// Command bench is the end-to-end benchmark: it runs one named workload
// against the engine's layers, checks every answer it times, and prints
// every metric by name with its unit. The last line of its output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// From the repository root:
//
//	bash bench/run.sh --workload predict --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload predict --seed 1 --seconds 10 --trace 1 --trace-dir out/
//	bash bench/run.sh -compare results/before results/after
//
// See README.md for the workloads, the metrics and how to read -compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: ingest, predict, sweep or serve")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase, in seconds")
	traceMode := fs.Int("trace", 0, "1: after the untraced timed phase, time it again with spans and report per-layer metrics")
	traceDir := fs.String("trace-dir", "", "with -trace 1, write the spans as Chrome trace JSON and the per-span self times into this directory")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the timed phases to this file")
	compare := fs.Bool("compare", false, "compare the result files of two directories: -compare dirA dirB")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two directories of result files")
			return 2
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), specPath, stdout, stderr)
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	cfg := config{
		workload:   *workload,
		seed:       *seed,
		measure:    time.Duration(*seconds * float64(time.Second)),
		warmup:     warmup,
		setups:     setups,
		trace:      *traceMode == 1,
		traceDir:   *traceDir,
		cpuprofile: *cpuprofile,
	}
	res, err := runBench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := printResult(stdout, cfg, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// metricValue and output are the schema of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes the human-readable lines, each starting with '#',
// and then the JSON result line. The header line names the workload, so
// a saved output file can be compared later.
func printResult(w io.Writer, cfg config, res *result) error {
	trace := 0
	if cfg.trace {
		trace = 1
	}
	out := output{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "# bench workload=%s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.measure.Seconds(), trace)
	fmt.Fprintf(w, "# attempted=%d failed=%d failed_frac=%g latency_samples=%d\n",
		res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)), res.samples)
	fmt.Fprintf(w, "# pred_digest=%s\n", res.digest)
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.metrics[name]
		out.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
		fmt.Fprintf(w, "# %-32s %14.6g %s\n", name, v, unitOf(name))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
