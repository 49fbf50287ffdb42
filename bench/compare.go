package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// spec is the part of BENCHMARK.json that -compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// savedRun is one saved benchmark output.
type savedRun struct {
	workload string
	trace    bool
	out      output
}

// parseRun reads one saved output: its '# bench' header line and its last
// line, the JSON result.
func parseRun(data []byte) (savedRun, error) {
	var r savedRun
	var last string
	header := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if fields, ok := strings.CutPrefix(line, "# bench "); ok {
			header = true
			for _, f := range strings.Fields(fields) {
				k, v, _ := strings.Cut(f, "=")
				switch k {
				case "workload":
					r.workload = v
				case "trace":
					r.trace = v == "1"
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if !header {
		return r, fmt.Errorf("no '# bench' header line")
	}
	if err := json.Unmarshal([]byte(last), &r.out); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}

// readRuns reads every result file of dir, skipping (and naming) files
// that are not benchmark outputs.
func readRuns(dir string, stderr io.Writer) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r, err := parseRun(data)
		if err != nil {
			fmt.Fprintf(stderr, "bench: skipping %s: %v\n", path, err)
			continue
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// quartiles returns the first, second and third quartiles the way
// Python's statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), so spreads read the same as in tools that use it.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// compareRow is one workload × metric line of a comparison.
type compareRow struct {
	a, b    []float64
	wins    int
	pairs   int
	verdict string
}

// judge compares the change's runs b against the parent's runs a for one
// metric. Differences and spreads are relative to the parent's median;
// "worse" follows the metric's direction. A change regresses when its
// median is worse by more than bound and improves when it wins at least
// nine tenths of all run pairs and its median moved by more than the
// spread between the parent's own quartiles. Where that spread exceeds
// the bound the metric is unresolved, unless every run of one side beats
// every run of the other.
func judge(a, b []float64, bound float64, lowerBetter bool) compareRow {
	row := compareRow{a: a, b: b}
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			row.pairs++
			if better(y, x) {
				row.wins++
			}
			allBetter = allBetter && better(y, x)
			allWorse = allWorse && better(x, y)
		}
	}
	a1, am, a3 := quartiles(a)
	_, bm, _ := quartiles(b)
	worse := (bm - am) / math.Abs(am)
	if !lowerBetter {
		worse = -worse
	}
	spread := (a3 - a1) / math.Abs(am)
	switch {
	case am == 0 && bm == 0:
		row.verdict = "unchanged"
	case spread > bound && allBetter:
		row.verdict = "improved"
	case spread > bound && allWorse:
		row.verdict = "regressed"
	case spread > bound:
		row.verdict = "unresolved"
	case worse > bound:
		row.verdict = "regressed"
	case row.wins*10 >= row.pairs*9 && -worse > spread:
		row.verdict = "improved"
	default:
		row.verdict = "unchanged"
	}
	return row
}

// judgeFailed compares the failed share of all ops over all runs of each
// side. Failures may not grow at all, so the change regresses when its
// pooled share exceeds the parent's, however few of its runs failed; a
// per-run median would hide failures in fewer than half the runs.
func judgeFailed(a, b []output) string {
	share := func(outs []output) float64 {
		var attempted, failed int
		for _, o := range outs {
			attempted += o.Attempted
			failed += o.Failed
		}
		return float64(failed) / float64(max(attempted, 1))
	}
	switch sa, sb := share(a), share(b); {
	case sb > sa:
		return "regressed"
	case sb < sa:
		return "improved"
	}
	return "unchanged"
}

// outputsOf returns the untraced result lines of one workload.
func outputsOf(runs []savedRun, workload string) []output {
	var outs []output
	for _, r := range runs {
		if r.workload == workload && !r.trace {
			outs = append(outs, r.out)
		}
	}
	return outs
}

// compareDirs reads N saved outputs per side and prints, per workload and
// metric, each side's median and quartiles, the change's pairwise wins
// and a verdict against the bounds in BENCHMARK.json. It also judges the
// failed share with judgeFailed. It exits 1 when anything regressed.
func compareDirs(dirA, dirB, specPath string, stdout, stderr io.Writer) int {
	s, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	runsA, err := readRuns(dirA, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	runsB, err := readRuns(dirB, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	pick := func(runs []savedRun, workload string, trace bool, metric string) []float64 {
		var vs []float64
		for _, r := range runs {
			if r.workload != workload || r.trace != trace {
				continue
			}
			if metric == "failed_frac" {
				vs = append(vs, float64(r.out.Failed)/float64(max(r.out.Attempted, 1)))
			} else if m, ok := r.out.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}

	fmt.Fprintf(stdout, "%-8s %-30s %-8s %-34s %-34s %-9s %s\n",
		"workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B wins", "verdict")
	regressed := false
	line := func(workload, metric, unit string, row compareRow) {
		fmt.Fprintf(stdout, "%-8s %-30s %-8s %-34s %-34s %-9s %s\n",
			workload, metric, unit, summary(row.a), summary(row.b),
			fmt.Sprintf("%d/%d", row.wins, row.pairs), row.verdict)
	}
	for _, wl := range workloads {
		for _, m := range s.EndToEnd {
			a, b := pick(runsA, wl, false, m.Name), pick(runsB, wl, false, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			row := judge(a, b, m.Bound, m.Better == "lower")
			regressed = regressed || row.verdict == "regressed"
			line(wl, m.Name, m.Unit, row)
		}
		a, b := pick(runsA, wl, false, "failed_frac"), pick(runsB, wl, false, "failed_frac")
		if len(a) > 0 && len(b) > 0 {
			row := compareRow{a: a, b: b, verdict: judgeFailed(
				outputsOf(runsA, wl), outputsOf(runsB, wl))}
			regressed = regressed || row.verdict == "regressed"
			line(wl, "failed_frac", "fraction", row)
		}
		for _, m := range s.PerLayer {
			a, b := pick(runsA, wl, true, m.Name), pick(runsB, wl, true, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			line(wl, m.Name, m.Unit, compareRow{a: a, b: b, verdict: "-"})
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func summary(vs []float64) string {
	q1, q2, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(vs))
}
