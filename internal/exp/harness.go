// Package exp is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (§6): for each experiment it runs the
// ground-truth engine, computes Daydream's prediction from a baseline
// trace, and renders the same rows/series the paper reports, including the
// prediction-error columns.
package exp

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
)

// Table is a renderable experiment result.
type Table struct {
	// ID is the experiment identifier ("fig5", "fig8a", "sec6.4", ...).
	ID string
	// Title describes the experiment, paper-style.
	Title string
	// Header labels the columns.
	Header []string
	// Rows is the cell matrix.
	Rows [][]string
	// Notes carry paper-vs-measured commentary.
	Notes []string
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// Experiment pairs an identifier with a generator.
type Experiment struct {
	// ID is the experiment identifier used by the CLI's -run filter.
	ID string
	// Title is a one-line description.
	Title string
	// Run generates the result tables.
	Run func() ([]*Table, error)
}

// All returns every experiment of the paper's evaluation, in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table2", Title: "Models and datasets (Table 2)", Run: Table2Models},
		{ID: "fig5", Title: "AMP prediction accuracy (Figure 5)", Run: Fig5AMP},
		{ID: "fig6", Title: "Runtime breakdown fp32 vs fp16 (Figure 6)", Run: Fig6Breakdown},
		{ID: "fig7", Title: "FusedAdam prediction accuracy (Figure 7)", Run: Fig7FusedAdam},
		{ID: "fig8", Title: "Distributed training predictions (Figure 8)", Run: Fig8Distributed},
		{ID: "fig9", Title: "NCCL all-reduce interference (Figure 9)", Run: Fig9NCCL},
		{ID: "fig10", Title: "P3 predictions vs bandwidth (Figure 10)", Run: Fig10P3},
		{ID: "sec6.4", Title: "Reconstructing batchnorm (Section 6.4)", Run: BatchnormRecon},
		{ID: "table1", Title: "Optimization-model coverage (Table 1)", Run: Table1Coverage},
		{ID: "ablation", Title: "Modeling-ingredient ablations (replay fidelity)", Run: Ablation},
		{ID: "upgrade", Title: "Device-upgrade what-if validation (extension)", Run: Upgrade},
		{ID: "ampgrid", Title: "Per-layer AMP attribution grid (one sweep over a shared baseline)", Run: AMPLayerGrid},
		{ID: "kcurve", Title: "Kernel-profile sensitivity curve (incremental sweep)", Run: KernelCurve},
		{ID: "memgrid", Title: "Memory-vs-makespan trade-off grid (memory timeline extension)", Run: MemGrid},
		{ID: "pipegrid", Title: "Pipeline partitioning grid — stages × microbatches vs data-parallel (pipeline extension)", Run: PipeGrid},
	}
}

// runParallel evaluates fn(0..n-1) on a bounded worker pool and returns
// the first error in index order. The experiment grids use it to fan
// out their ground-truth framework.Run calls, which are independent and
// deterministic per configuration — the engine reads only its Config —
// so the parallel grid is bit-identical to the sequential loop.
func runParallel(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Profile runs the baseline configuration, builds the dependency graph and
// applies the layer mapping: the first two phases of Daydream's workflow.
func Profile(cfg framework.Config) (*framework.Result, *core.Graph, error) {
	cfg.CollectTrace = true
	res, err := framework.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := core.Build(res.Trace)
	if err != nil {
		return nil, nil, err
	}
	core.MapLayers(g, res.Trace.LayerSpans)
	return res, g, nil
}

// model loads a zoo model or panics: experiment code only uses known names.
func model(name string) *dnn.Model {
	m, err := dnn.ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// ms renders a duration as milliseconds with one decimal.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// pct renders a fraction as a percentage with one decimal.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// relErr returns |a−b| / b.
func relErr(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	return d / float64(b)
}

// improvement returns the fractional gain of new over base (1 − new/base).
func improvement(base, new time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return 1 - float64(new)/float64(base)
}
