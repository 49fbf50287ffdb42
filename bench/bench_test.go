package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// shortConfig runs a workload for about a second: one set-up, a short
// warm-up and a short timed phase.
func shortConfig(workload string, seed uint64, traced bool) config {
	return config{
		workload: workload,
		seed:     seed,
		measure:  600 * time.Millisecond,
		warmup:   200 * time.Millisecond,
		setups:   1,
		trace:    traced,
	}
}

func runShort(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := runBench(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res
}

// TestWorkloadsReportEveryMetric runs every workload untraced and traced
// and checks that the result line carries exactly the metrics
// BENCHMARK.json names, with their units, that nothing failed, and that
// the stage spans of ingest and predict account for their ops' time.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	s, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", wl, traced), func(t *testing.T) {
				cfg := shortConfig(wl, 1, traced)
				res := runShort(t, cfg)
				if !res.correct || res.failed != 0 {
					t.Errorf("%d of %d ops failed", res.failed, res.attempted)
				}
				var buf bytes.Buffer
				if err := printResult(&buf, cfg, res); err != nil {
					t.Fatal(err)
				}
				run, err := parseRun(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if run.workload != wl || run.trace != traced {
					t.Errorf("header names %s trace=%v", run.workload, run.trace)
				}
				want := map[string]string{}
				if traced {
					for _, m := range s.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range s.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := run.out.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case got.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %g, want > 0", name, got.Value)
					}
				}
				for name := range run.out.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if traced && (wl == "ingest" || wl == "predict") {
					share := run.out.Metrics[wl+".unattributed.share"].Value
					if share > 0.05 || share <= 0 {
						t.Errorf("%s.unattributed.share = %g, want in (0, 0.05]", wl, share)
					}
				}
			})
		}
	}
}

// TestSeedDeterminesInputs checks that a seed fixes the op sequence and
// the reference answers, and that another seed changes both.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			a := runShort(t, shortConfig(wl, 7, false))
			b := runShort(t, shortConfig(wl, 7, false))
			c := runShort(t, shortConfig(wl, 8, false))
			n := min(len(a.trail), len(b.trail), len(c.trail))
			if n == 0 {
				t.Fatal("no ops ran")
			}
			if !slices.Equal(a.trail[:n], b.trail[:n]) {
				t.Errorf("same seed, different op sequences:\n%v\n%v", a.trail[:n], b.trail[:n])
			}
			if a.digest != b.digest {
				t.Errorf("same seed, different pred_digest: %s vs %s", a.digest, b.digest)
			}
			if slices.Equal(a.trail[:n], c.trail[:n]) {
				t.Errorf("seeds 7 and 8 ran the same %d ops", n)
			}
			if a.digest == c.digest {
				t.Errorf("seeds 7 and 8 have the same pred_digest %s", a.digest)
			}
		})
	}
}

// TestVerifierCatchesWrongAnswer corrupts one timed answer per workload
// and expects the run to report it as failed.
func TestVerifierCatchesWrongAnswer(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			cfg := shortConfig(wl, 1, false)
			cfg.tamper = func(v int64) int64 { return v + 1 }
			res := runShort(t, cfg)
			if res.correct || res.failed != 1 {
				t.Errorf("correct=%v failed=%d, want one caught mismatch", res.correct, res.failed)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it
	// extrapolates past the data for small samples.
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"same runs", steady, steady, true, "unchanged"},
		{"slower beyond bound", steady, shift(10), true, "regressed"},
		{"slower within bound", steady, shift(1), true, "unchanged"},
		{"faster, every pair won", steady, shift(-10), true, "improved"},
		{"higher is better", steady, shift(-10), false, "regressed"},
		{"parent spread wider than bound", noisy, steady, true, "unresolved"},
	} {
		if got := judge(tc.a, tc.b, 0.05, tc.lowerBetter).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestJudgeFailed(t *testing.T) {
	runs := func(failed ...int) []output {
		outs := make([]output, len(failed))
		for i, f := range failed {
			outs[i] = output{Attempted: 1000, Failed: f}
		}
		return outs
	}
	clean := runs(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	for _, tc := range []struct {
		name string
		a, b []output
		want string
	}{
		{"no failures", clean, clean, "unchanged"},
		// The median run of B has no failures; the pooled share does.
		{"a few runs of B fail", clean, runs(0, 0, 3, 0, 0, 1, 0, 0, 0, 0), "regressed"},
		{"one op of one run fails", clean, runs(0, 0, 0, 0, 0, 0, 0, 0, 0, 1), "regressed"},
		{"B fails less", runs(0, 2, 0, 0, 0, 0, 0, 0, 0, 0), clean, "improved"},
	} {
		if got := judgeFailed(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
