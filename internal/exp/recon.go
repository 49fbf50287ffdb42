package exp

import (
	"time"

	"daydream/internal/core"
	"daydream/internal/framework"
	"daydream/internal/whatif"
)

// ReconResult is the §6.4 experiment outcome.
type ReconResult struct {
	// Baseline is the stock Caffe DenseNet-121 iteration time.
	Baseline time.Duration
	// GroundTruth is the iteration time with the reconstructed-batchnorm
	// implementation (including its new copies and allocations).
	GroundTruth time.Duration
	// Predicted is Daydream's idealized prediction (Algorithm 5).
	Predicted time.Duration
	// PredictedSpeedup and GroundTruthSpeedup are improvements over the
	// baseline.
	PredictedSpeedup, GroundTruthSpeedup float64
}

// RunBatchnormRecon reproduces §6.4: reconstructing batch normalization on
// the Caffe implementation of DenseNet-121. Daydream's idealized
// transformation predicts a larger speedup than the ground truth delivers,
// because the real re-implementation introduces new kernels, memory copies
// and allocations the prediction cannot know (paper: 12.7% predicted vs
// ~7% measured, against the original paper's 17.5% claim).
func RunBatchnormRecon() (*ReconResult, error) {
	m := model("densenet121")
	base := framework.Config{Model: m, Dialect: framework.Caffe}
	baseRes, g, err := Profile(base)
	if err != nil {
		return nil, err
	}
	gtCfg := base
	gtCfg.ReconBatchnorm = true
	gt, err := framework.Run(gtCfg)
	if err != nil {
		return nil, err
	}
	pred := core.NewPatch(g)
	if err := whatif.OptReconBatchnorm(whatif.ReconBatchnormOptions{}).Apply(pred); err != nil {
		return nil, err
	}
	predicted, err := pred.PredictIteration()
	if err != nil {
		return nil, err
	}
	return &ReconResult{
		Baseline:           baseRes.IterationTime,
		GroundTruth:        gt.IterationTime,
		Predicted:          predicted,
		PredictedSpeedup:   improvement(baseRes.IterationTime, predicted),
		GroundTruthSpeedup: improvement(baseRes.IterationTime, gt.IterationTime),
	}, nil
}

// BatchnormRecon renders §6.4 as a table.
func BatchnormRecon() ([]*Table, error) {
	r, err := RunBatchnormRecon()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "sec6.4",
		Title:  "Reconstructing batchnorm on DenseNet-121 (Caffe)",
		Header: []string{"Variant", "Iteration (ms)", "Improvement"},
		Rows: [][]string{
			{"Baseline", ms(r.Baseline), "-"},
			{"Ground truth (real reimplementation)", ms(r.GroundTruth), pct(r.GroundTruthSpeedup)},
			{"Daydream prediction (Algorithm 5)", ms(r.Predicted), pct(r.PredictedSpeedup)},
		},
		Notes: []string{
			"paper: predicted 12.7% vs measured ~7% (original optimization paper claimed 17.5%); the gap comes from the re-implementation's new kernels, memory copies and allocations",
		},
	}
	return []*Table{t}, nil
}
