package exp

import (
	"fmt"
	"time"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/framework"
	"daydream/internal/whatif"
)

// Table2Models renders Table 2: the models and datasets of the evaluation.
func Table2Models() ([]*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "The models and datasets used in this reproduction",
		Header: []string{"Application", "Model", "Dataset", "Layers", "Param tensors", "Params (M)", "Batch", "Optimizer"},
	}
	apps := []struct{ app, zoo string }{
		{"Image Classification", "vgg19"},
		{"Image Classification", "densenet121"},
		{"Image Classification", "resnet50"},
		{"Machine Translation", "gnmt"},
		{"Language Modeling", "bert-base"},
		{"Language Modeling", "bert-large"},
	}
	for _, a := range apps {
		m := model(a.zoo)
		t.Rows = append(t.Rows, []string{
			a.app, m.Name, m.Dataset,
			fmt.Sprintf("%d", len(m.Layers)),
			fmt.Sprintf("%d", m.ParamTensorCount()),
			fmt.Sprintf("%.1f", float64(m.ParamCount())/1e6),
			fmt.Sprintf("%d", m.BatchSize),
			m.Optimizer.String(),
		})
	}
	return []*Table{t}, nil
}

// CoverageRow is one Table-1 optimization model exercised end to end.
type CoverageRow struct {
	// Optimization and Model identify the what-if.
	Optimization, Model string
	// Baseline and Predicted are simulated iteration times before and
	// after the transformation.
	Baseline, Predicted time.Duration
	// Delta is the predicted improvement (negative for overheads, as
	// expected for the memory-footprint techniques).
	Delta float64
}

// RunTable1Coverage exercises all ten optimization models of §5 on
// appropriate workloads, demonstrating that every bold/italic technique of
// the paper's Table 1 is representable with the graph-transformation
// primitives.
func RunTable1Coverage() ([]CoverageRow, error) {
	resnet := model("resnet50")
	_, rg, err := Profile(framework.Config{Model: resnet})
	if err != nil {
		return nil, err
	}
	rBase, err := rg.Clone().PredictIteration()
	if err != nil {
		return nil, err
	}
	gnmt := model("gnmt")
	_, gg, err := Profile(framework.Config{Model: gnmt})
	if err != nil {
		return nil, err
	}
	gBase, err := gg.Clone().PredictIteration()
	if err != nil {
		return nil, err
	}
	topo := fig8Topology(4, 1, 10)

	var rows []CoverageRow
	add := func(opt, mname string, base time.Duration, predict func() (time.Duration, error)) error {
		p, err := predict()
		if err != nil {
			return fmt.Errorf("exp: table1 %s: %w", opt, err)
		}
		rows = append(rows, CoverageRow{
			Optimization: opt, Model: mname,
			Baseline: base, Predicted: p,
			Delta: improvement(base, p),
		})
		return nil
	}

	// predictPatch predicts opt recorded on a patch over g (without the
	// value's carried scheduler: vDNN is tabulated under the default
	// policy).
	predictPatch := func(g *core.Graph, opt core.Optimization) (time.Duration, error) {
		p := core.NewPatch(g)
		if err := opt.Apply(p); err != nil {
			return 0, err
		}
		return p.PredictIteration()
	}
	// distributed materializes Algorithm 6's graph for the models that
	// rewrite its all-reduces (BlueConnect, DGC).
	distributed := func() (*core.Graph, error) {
		p := core.NewPatch(rg)
		if err := whatif.DistributedPatch(p, whatif.DistributedOptions{Topology: topo}); err != nil {
			return nil, err
		}
		return p.Materialize()
	}

	if err := add("AMP (Alg 3)", resnet.Name, rBase, func() (time.Duration, error) {
		return predictPatch(rg, whatif.OptAMP())
	}); err != nil {
		return nil, err
	}
	if err := add("FusedAdam (Alg 4)", gnmt.Name, gBase, func() (time.Duration, error) {
		return predictPatch(gg, whatif.OptFusedAdam())
	}); err != nil {
		return nil, err
	}
	if err := add("Recon. batchnorm (Alg 5)", resnet.Name, rBase, func() (time.Duration, error) {
		return predictPatch(rg, whatif.OptReconBatchnorm(whatif.ReconBatchnormOptions{}))
	}); err != nil {
		return nil, err
	}
	if err := add("Distributed (Alg 6)", resnet.Name, rBase, func() (time.Duration, error) {
		return predictPatch(rg, whatif.OptDistributed(whatif.DistributedOptions{Topology: topo}))
	}); err != nil {
		return nil, err
	}
	// P3 needs an MXNet-style profile; its baseline is the plain FIFO
	// parameter server at a bandwidth where transfer order matters.
	if err := func() error {
		_, mg, err := Profile(framework.Config{Model: resnet, Dialect: framework.MXNet})
		if err != nil {
			return err
		}
		psTopo := fig8Topology(4, 1, 2)
		predictPS := func(slice int64) (time.Duration, error) {
			res, err := whatif.P3(mg.Clone(), whatif.P3Options{Topology: psTopo, SliceBytes: slice})
			if err != nil {
				return 0, err
			}
			sim, err := res.Graph.Simulate()
			if err != nil {
				return 0, err
			}
			return res.IterationTime(sim), nil
		}
		fifo, err := predictPS(0)
		if err != nil {
			return err
		}
		return add("P3 (Alg 7, vs FIFO PS)", resnet.Name, fifo, func() (time.Duration, error) {
			return predictPS(800 << 10)
		})
	}(); err != nil {
		return nil, err
	}
	if err := add("BlueConnect (Alg 8)", resnet.Name, rBase, func() (time.Duration, error) {
		c, err := distributed()
		if err != nil {
			return 0, err
		}
		if err := whatif.BlueConnect(c, whatif.BlueConnectOptions{
			Factors:     []int{2, 2},
			Bandwidths:  []float64{comm.Gbps(10), 11e9},
			StepLatency: 15 * time.Microsecond,
		}); err != nil {
			return 0, err
		}
		return c.PredictIteration()
	}); err != nil {
		return nil, err
	}
	if err := add("MetaFlow (Alg 9)", resnet.Name, rBase, func() (time.Duration, error) {
		c := rg.Clone()
		subs := []whatif.Substitution{{
			Remove: []string{"layer1.0.relu1", "layer1.0.relu2"},
			Scale:  map[string]float64{"layer1.0.conv2": 1.15},
		}}
		if err := whatif.MetaFlow(c, subs); err != nil {
			return 0, err
		}
		return c.PredictIteration()
	}); err != nil {
		return nil, err
	}
	if err := add("vDNN (Alg 10)", resnet.Name, rBase, func() (time.Duration, error) {
		return predictPatch(rg, whatif.OptVDNN(whatif.VDNNOptions{}))
	}); err != nil {
		return nil, err
	}
	if err := add("Gist (Alg 11)", resnet.Name, rBase, func() (time.Duration, error) {
		c := rg.Clone()
		if err := whatif.Gist(c, whatif.GistOptions{}); err != nil {
			return 0, err
		}
		return c.PredictIteration()
	}); err != nil {
		return nil, err
	}
	if err := add("DGC (Alg 12)", resnet.Name, rBase, func() (time.Duration, error) {
		c, err := distributed()
		if err != nil {
			return 0, err
		}
		if err := whatif.DGC(c, whatif.DGCOptions{}); err != nil {
			return 0, err
		}
		return c.PredictIteration()
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// Table1Coverage renders the coverage table.
func Table1Coverage() ([]*Table, error) {
	rows, err := RunTable1Coverage()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "table1",
		Title:  "All ten §5 optimization models expressed with the graph-transformation primitives",
		Header: []string{"Optimization", "Model", "Baseline (ms)", "Predicted (ms)", "Predicted delta"},
		Notes: []string{
			"positive delta = predicted speedup; negative = predicted overhead (expected for the memory-footprint techniques vDNN and Gist)",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Optimization, r.Model, ms(r.Baseline), ms(r.Predicted), pct(r.Delta),
		})
	}
	return []*Table{t}, nil
}
