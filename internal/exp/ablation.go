package exp

import (
	"time"

	"daydream/internal/core"
	"daydream/internal/framework"
	"daydream/internal/sweep"
	"daydream/internal/trace"
)

// AblationRow reports replay fidelity with one modeling ingredient
// removed.
type AblationRow struct {
	// Model names the workload.
	Model string
	// Variant names the ablation.
	Variant string
	// Traced is the measured iteration time.
	Traced time.Duration
	// Simulated is the replayed iteration time under the ablation.
	Simulated time.Duration
	// Err is the signed relative error (negative = underestimate).
	Err float64
}

// ablationVariants knock out one design ingredient the paper argues
// for. Each ablation is a custom core.Optimization value — built with
// the same PatchOpt constructor user code extends the system with — so
// the sweep dispatches it like any registry optimization: duration-only
// ablations ride the clone-free overlay path, the structural one
// (dropping CPU tasks) the clone-free patch path, and the full model (a
// nil Opt) replays the shared baseline directly.
var ablationVariants = []struct {
	name string
	note string
	opt  core.Optimization // nil: replay the full model
}{
	{
		name: "full model",
		note: "all five dependency types, gaps, sync residuals",
	},
	{
		// §4.2.1 "Gap": non-CUDA CPU time is invisible to CUPTI but
		// "indispensable to simulation accuracy".
		name: "no CPU gaps",
		note: "drop the un-instrumented framework time between CUDA calls",
		opt: core.PatchOpt("no-cpu-gaps", core.TimingOnly, func(p *core.Patch) error {
			o := p.Timing()
			for _, t := range o.Base().Tasks() {
				o.SetGap(t, 0)
			}
			return nil
		}, nil),
	},
	{
		// Build decomposes a blocking call's traced duration into
		// dependency edges + a residual; keeping the full traced
		// duration double-counts the waiting.
		name: "no sync decomposition",
		note: "keep blocking calls' full traced durations (waiting counted twice)",
		opt: core.PatchOpt("no-sync-decomposition", core.TimingOnly, func(p *core.Patch) error {
			o := p.Timing()
			for _, t := range o.Base().Tasks() {
				if t.Kind == trace.KindSync ||
					(t.Kind == trace.KindMemcpyAPI && t.Dir == trace.MemcpyD2H) {
					o.SetDuration(t, t.TracedDuration)
				}
			}
			return nil
		}, nil),
	},
	{
		// §2.3/§3: framework built-in profilers "omit important
		// details (for example, the CPU runtime)"; a GPU-only model
		// is what you get without the kernel-level CPU abstraction.
		name: "GPU-only model",
		note: "drop all CPU tasks (what layer-level profilers see)",
		opt: core.PatchOpt("gpu-only", core.Structural, func(p *core.Patch) error {
			for _, t := range p.Base().Tasks() {
				if t.OnCPU() {
					p.RemoveTask(t)
				}
			}
			return nil
		}, nil),
	},
}

// ablationModels are the two models with the most contrasting CPU/GPU
// balance.
var ablationModels = []string{"resnet50", "bert-large"}

// RunAblation measures replay error for each modeling ablation. The two
// profiling runs fan out over a bounded pool; the models × variants
// grid then runs through one sweep, each scenario carrying its model's
// profile as Base.
func RunAblation() ([]AblationRow, error) {
	nv := len(ablationVariants)
	scenarios := make([]sweep.Scenario, len(ablationModels)*nv)
	rows := make([]AblationRow, len(ablationModels)*nv)
	err := runParallel(len(ablationModels), func(mi int) error {
		m := model(ablationModels[mi])
		res, g, err := Profile(framework.Config{Model: m})
		if err != nil {
			return err
		}
		for vi, v := range ablationVariants {
			i := mi*nv + vi
			rows[i] = AblationRow{
				Model:   m.Name,
				Variant: v.name,
				Traced:  res.IterationTime,
			}
			scenarios[i] = sweep.Scenario{
				Name: m.Name + "/" + v.name,
				Base: g,
				Opt:  v.opt,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sims, err := sweep.Run(nil, scenarios)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].Simulated = sims[i].Value
		rows[i].Err = float64(sims[i].Value-rows[i].Traced) / float64(rows[i].Traced)
	}
	return rows, nil
}

// Ablation renders the ablation study.
func Ablation() ([]*Table, error) {
	rows, err := RunAblation()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablation",
		Title:  "Replay fidelity with modeling ingredients removed (why the kernel-level CPU+GPU abstraction matters, §3)",
		Header: []string{"Model", "Variant", "Traced (ms)", "Simulated (ms)", "Error"},
	}
	for _, r := range rows {
		sign := ""
		if r.Err > 0 {
			sign = "+"
		}
		t.Rows = append(t.Rows, []string{
			r.Model, r.Variant, ms(r.Traced), ms(r.Simulated),
			sign + pct(r.Err),
		})
	}
	t.Notes = append(t.Notes,
		"the full model replays within a fraction of a percent; each ablation corresponds to a simpler profiler design the paper argues against",
	)
	return []*Table{t}, nil
}
