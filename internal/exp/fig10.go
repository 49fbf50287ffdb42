package exp

import (
	"fmt"
	"time"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/sweep"
	"daydream/internal/whatif"
	"daydream/internal/xpu"
)

// P3Row is one bandwidth point of Figure 10.
type P3Row struct {
	// Model is the paper's label.
	Model string
	// Gbps is the network bandwidth.
	Gbps float64
	// Baseline is the measured iteration time of the plain parameter
	// server (no P3).
	Baseline time.Duration
	// GroundTruth is the measured iteration time with P3 enabled.
	GroundTruth time.Duration
	// Predicted is Daydream's P3 prediction from the single-worker
	// profile.
	Predicted time.Duration
	// Err is |Predicted − GroundTruth| / GroundTruth.
	Err float64
}

// fig10Topology is the P3 paper's setup the evaluation reproduces: four
// machines with one Quadro P4000 each, MXNet parameter server.
func fig10Topology(gbps float64) comm.Topology {
	return comm.Topology{
		Machines:       4,
		GPUsPerMachine: 1,
		NICBandwidth:   comm.Gbps(gbps),
		IntraBandwidth: 11e9,
		StepLatency:    40 * time.Microsecond,
	}
}

// RunFig10Model computes one Figure 10 subfigure. The P3 experiments use
// smaller per-GPU batches than Table 2's defaults (the P3 paper's setup),
// which keeps the compute/communication ratio in the regime where
// prioritization matters. The bandwidth grid's Algorithm-7 predictions
// fan out through one sweep over the shared single-worker profile.
func RunFig10Model(label string, m *dnn.Model, bandwidths []float64) ([]P3Row, error) {
	base := framework.Config{
		Model:   m,
		Device:  xpu.P4000(),
		Dialect: framework.MXNet,
	}
	_, g, err := Profile(base)
	if err != nil {
		return nil, err
	}
	scenarios := make([]sweep.Scenario, len(bandwidths))
	for i, bw := range bandwidths {
		scenarios[i] = P3Scenario(g, fig10Topology(bw))
	}
	preds, err := sweep.Run(g, scenarios)
	if err != nil {
		return nil, err
	}
	// Two ground-truth engine runs (plain PS, P3) per bandwidth point,
	// all independent: fan the 2×len(bandwidths) grid out over a
	// bounded pool.
	rows := make([]P3Row, len(bandwidths))
	gts := make([]*framework.Result, 2*len(bandwidths))
	err = runParallel(len(gts), func(i int) error {
		cfg := base
		cfg.Cluster = &framework.Cluster{
			Topology: fig10Topology(bandwidths[i/2]),
			Backend:  framework.BackendPS,
			P3:       i%2 == 1,
		}
		res, err := framework.Run(cfg)
		if err != nil {
			return err
		}
		gts[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, bw := range bandwidths {
		baseline, gt := gts[2*i], gts[2*i+1]
		rows[i] = P3Row{
			Model:       label,
			Gbps:        bw,
			Baseline:    baseline.IterationTime,
			GroundTruth: gt.IterationTime,
			Predicted:   preds[i].Value,
			Err:         relErr(preds[i].Value, gt.IterationTime),
		}
	}
	return rows, nil
}

// P3Scenario wraps Algorithm 7 as a sweep scenario over the
// single-worker profile base: the scenario carries the P3 value, which
// the sweep evaluates as copy-on-write push/pull deltas over a
// two-round Repeat of base and measures by its steady-state iteration
// time (the distance between the last two rounds' completion
// frontiers). The returned Scenario holds no shared mutable state, so
// it is reusable and safe across concurrent sweeps like any other.
func P3Scenario(base *core.Graph, topo comm.Topology) sweep.Scenario {
	return sweep.Scenario{
		Name: fmt.Sprintf("p3 %s @%.0fGbps", topo.String(), topo.NICBandwidth/comm.Gbps(1)),
		Base: base,
		Opt: whatif.OptP3(whatif.P3Options{
			Topology:   topo,
			SliceBytes: 800 << 10,
		}),
	}
}

// fig10Models lists the two subfigures with their bandwidth sweeps.
var fig10Models = []struct {
	sub, label string
	build      func() *dnn.Model
	bandwidths []float64
}{
	{"fig10a", "ResNet-50", func() *dnn.Model { return dnn.ResNet50(32) }, []float64{1, 2, 4, 6, 8}},
	{"fig10b", "VGG-19", func() *dnn.Model { return dnn.VGG19(16) }, []float64{5, 10, 15, 20, 25}},
}

// Fig10P3 renders both subfigures of Figure 10.
func Fig10P3() ([]*Table, error) {
	var tables []*Table
	for _, mm := range fig10Models {
		rows, err := RunFig10Model(mm.label, mm.build(), mm.bandwidths)
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID:     mm.sub,
			Title:  fmt.Sprintf("P3 under different network bandwidths — %s (4×P4000, MXNet PS)", mm.label),
			Header: []string{"Bandwidth (Gbps)", "Baseline (ms)", "Ground Truth P3 (ms)", "Prediction (ms)", "Pred. error"},
			Notes: []string{
				"paper: error at most 16.2%; Daydream overestimates P3's speedup at high bandwidth, where server-side (non-network) overheads dominate",
			},
		}
		for _, r := range rows {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f", r.Gbps),
				ms(r.Baseline), ms(r.GroundTruth), ms(r.Predicted), pct(r.Err),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}
