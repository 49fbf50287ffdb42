package exp

import (
	"fmt"
	"sort"
	"time"

	"daydream/internal/core"
	"daydream/internal/framework"
	"daydream/internal/sweep"
	"daydream/internal/whatif"
)

// The grid experiments drill into the paper's what-ifs one dimension at
// a time: hundreds of timing-only scenarios over ONE shared profile —
// exactly the shape the sweep's incremental tier accelerates. Each grid
// profiles its model once and lets the pool's worker-owned warm
// schedules re-simulate only the affected cone per scenario; the tables
// report which tier each sweep actually rode so a dispatch regression
// is visible in the experiment output itself.

// AMPLayerRow is one row of the per-layer AMP attribution grid.
type AMPLayerRow struct {
	// Layer is the DNN layer index (forward order).
	Layer int
	// Name labels the layer (from its mapped tasks).
	Name string
	// GPUTasks counts the layer's GPU tasks.
	GPUTasks int
	// Saving is the iteration-time reduction when AMP is applied to
	// this layer alone.
	Saving time.Duration
	// Share is Saving over the full-AMP saving.
	Share float64
}

// RunAMPLayerGrid computes the per-layer AMP attribution grid: Figure
// 5's headline model (BERT_Large) profiled once, then one scenario per
// DNN layer applying Algorithm 3's mixed-precision scaling to that
// layer's GPU tasks only. Per-layer savings need not sum to the full-AMP
// saving — overlapped kernels hide each other — which is exactly what
// the grid makes visible. The whole grid shares one baseline, so the
// sweep evaluates it on the incremental tier (warm schedule, affected
// cone only) after each worker's first warm-up scenario.
func RunAMPLayerGrid() ([]AMPLayerRow, time.Duration, time.Duration, []string, error) {
	_, g, err := Profile(framework.Config{Model: model("bert-large")})
	if err != nil {
		return nil, 0, 0, nil, err
	}
	baseline, err := g.PredictIteration()
	if err != nil {
		return nil, 0, 0, nil, err
	}
	ix := g.LayerPhaseIndex()
	layers := ix.Layers()
	rows := make([]AMPLayerRow, layers)
	for layer := range rows {
		row := &rows[layer]
		row.Layer = layer
		for _, u := range ix.GPUTasks() {
			if u.HasLayer && u.LayerIndex == layer {
				row.GPUTasks++
				if row.Name == "" {
					row.Name = u.Layer
				}
			}
		}
	}
	scenarios := append(AMPLayerScenarios(g), sweep.Scenario{Name: "full-amp", Opt: whatif.OptAMP()})
	results, err := sweep.Run(g, scenarios)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	tiers := make([]string, len(results))
	for i, r := range results {
		tiers[i] = r.Tier
	}
	fullSaving := baseline - results[layers].Value
	for layer := 0; layer < layers; layer++ {
		rows[layer].Saving = baseline - results[layer].Value
		if fullSaving > 0 {
			rows[layer].Share = float64(rows[layer].Saving) / float64(fullSaving)
		}
	}
	return rows, baseline, fullSaving, tiers, nil
}

// AMPLayerScenarios returns the per-layer AMP grid over g: one
// timing-only scenario per DNN layer, named "layer-N", applying
// Algorithm 3's scaling to that layer's GPU tasks only. Every scenario
// shares the one baseline. On bert-large each layer's affected cone
// covers most of the schedule, so the sweep answers every row on the
// overlay tier.
func AMPLayerScenarios(g *core.Graph) []sweep.Scenario {
	ix := g.LayerPhaseIndex()
	scenarios := make([]sweep.Scenario, ix.Layers())
	for layer := range scenarios {
		layer := layer
		scenarios[layer].Opt = core.PatchOpt(fmt.Sprintf("layer-%d", layer), core.TimingOnly, func(p *core.Patch) error {
			compute := ix.GPUComputeBound()
			for i, u := range ix.GPUTasks() {
				if !u.HasLayer || u.LayerIndex != layer {
					continue
				}
				if compute[i] {
					p.SetDuration(u, p.Duration(u)/3)
				} else {
					p.SetDuration(u, p.Duration(u)/2)
				}
			}
			return nil
		}, nil)
	}
	return scenarios
}

// AMPLayerGrid renders the per-layer AMP attribution grid as a table:
// the top layers by saving plus an aggregate for the rest.
func AMPLayerGrid() ([]*Table, error) {
	rows, baseline, fullSaving, tiers, err := RunAMPLayerGrid()
	if err != nil {
		return nil, err
	}
	byS := append([]AMPLayerRow(nil), rows...)
	sort.SliceStable(byS, func(i, j int) bool { return byS[i].Saving > byS[j].Saving })
	const top = 12
	t := &Table{
		ID:     "ampgrid",
		Title:  "Per-layer AMP attribution on BERT_Large (Figure 5 drill-down, one scenario per layer)",
		Header: []string{"Layer", "Name", "GPU tasks", "Saving (ms)", "Share of full AMP"},
		Notes: []string{
			fmt.Sprintf("baseline %s ms; full AMP saves %s ms across %d layers", ms(baseline), ms(fullSaving), len(rows)),
			fmt.Sprintf("sweep tiers: %s", tierCounts(tiers)),
			"per-layer savings need not sum to the full-AMP saving: overlapped kernels hide each other",
		},
	}
	var restSaving time.Duration
	var restTasks, restLayers int
	for i, r := range byS {
		if i < top {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", r.Layer), r.Name, fmt.Sprintf("%d", r.GPUTasks),
				ms(r.Saving), pct(r.Share),
			})
			continue
		}
		restSaving += r.Saving
		restTasks += r.GPUTasks
		restLayers++
	}
	if restLayers > 0 {
		share := 0.0
		if fullSaving > 0 {
			share = float64(restSaving) / float64(fullSaving)
		}
		t.Rows = append(t.Rows, []string{
			"rest", fmt.Sprintf("(%d layers)", restLayers), fmt.Sprintf("%d", restTasks),
			ms(restSaving), pct(share),
		})
	}
	return []*Table{t}, nil
}

// kcurveFactors is the kernel-profile sensitivity grid: matching
// kernels run at factor× their profiled duration, COZ-style, from a 4×
// speed-up to a 1.5× slow-down.
var kcurveFactors = []float64{0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5}

// KCurveRow is one point of the kernel-profile sensitivity curve.
type KCurveRow struct {
	// Factor is the duration multiplier applied to matching kernels.
	Factor float64
	// Predicted is the predicted iteration time.
	Predicted time.Duration
	// Improvement is the relative iteration-time change vs the
	// baseline (positive = faster).
	Improvement float64
}

// RunKernelCurve computes the kernel-profile sensitivity curve (§7.4's
// externally-profiled-durations what-if, swept): ResNet-50 profiled
// once, then one scenario per factor running every cuDNN conv kernel at
// factor× its profiled duration. Like the AMP grid, every point shares
// the baseline, so the sweep rides the incremental tier.
func RunKernelCurve() ([]KCurveRow, time.Duration, []string, error) {
	_, g, err := Profile(framework.Config{Model: model("resnet50")})
	if err != nil {
		return nil, 0, nil, err
	}
	baseline, err := g.PredictIteration()
	if err != nil {
		return nil, 0, nil, err
	}
	scenarios := make([]sweep.Scenario, len(kcurveFactors))
	for i, f := range kcurveFactors {
		scenarios[i] = sweep.Scenario{
			Name: fmt.Sprintf("scudnn@%.2fx", f),
			Opt:  whatif.OptScale("scudnn", f),
		}
	}
	results, err := sweep.Run(g, scenarios)
	if err != nil {
		return nil, 0, nil, err
	}
	rows := make([]KCurveRow, len(results))
	tiers := make([]string, len(results))
	for i, r := range results {
		rows[i] = KCurveRow{
			Factor:      kcurveFactors[i],
			Predicted:   r.Value,
			Improvement: improvement(baseline, r.Value),
		}
		tiers[i] = r.Tier
	}
	return rows, baseline, tiers, nil
}

// KernelCurve renders the kernel-profile sensitivity curve as a table.
func KernelCurve() ([]*Table, error) {
	rows, baseline, tiers, err := RunKernelCurve()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "kcurve",
		Title:  "Kernel-profile sensitivity on ResNet-50 — scudnn conv kernels at factor× profiled duration (§7.4 swept)",
		Header: []string{"Factor", "Prediction (ms)", "Improvement"},
		Notes: []string{
			fmt.Sprintf("baseline %s ms; factor 1.00 must reproduce it exactly", ms(baseline)),
			fmt.Sprintf("sweep tiers: %s", tierCounts(tiers)),
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", r.Factor), ms(r.Predicted), pct(r.Improvement),
		})
	}
	return []*Table{t}, nil
}

// tierCounts summarizes a sweep's dispatch tiers ("incremental×13,
// overlay×1") in first-appearance order.
func tierCounts(tiers []string) string {
	counts := map[string]int{}
	var order []string
	for _, tier := range tiers {
		if counts[tier] == 0 {
			order = append(order, tier)
		}
		counts[tier]++
	}
	s := ""
	for i, tier := range order {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s×%d", tier, counts[tier])
	}
	return s
}
