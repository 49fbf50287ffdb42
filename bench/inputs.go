package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/serve"
	"daydream/internal/trace"
	"daydream/internal/whatif"
	"daydream/internal/xpu"
)

// newRand returns the generator for one of the independent choices a
// seed drives; stream tells the choices apart.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// deck deals the indices 0..n-1 in a fresh seeded order every cycle, so
// every input is used equally often and the order still depends on the
// seed.
type deck struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, perm: make([]int, n), pos: n}
	for i := range d.perm {
		d.perm[i] = i
	}
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.perm) {
		d.rng.Shuffle(len(d.perm), func(i, j int) { d.perm[i], d.perm[j] = d.perm[j], d.perm[i] })
		d.pos = 0
	}
	d.pos++
	return d.perm[d.pos-1]
}

// batchChoices lists, per zoo model, the per-GPU batch sizes a seed picks
// from. A trace's task count does not depend on its batch size, so the
// choice moves the kernel durations, and with them the answers, but not
// the work one op does.
var batchChoices = map[string][]int{
	"bert-base":   {2, 3, 4, 6, 8},
	"bert-large":  {1, 2, 3, 4},
	"densenet121": {16, 24, 32, 48, 64},
	"gnmt":        {16, 24, 32, 48, 64},
	"resnet50":    {32, 48, 64, 96, 128},
	"transformer": {32, 48, 64, 96, 128},
	"vgg19":       {16, 24, 32, 48, 64},
}

// profile names one training iteration of a zoo model: its batch size and
// the training engine's jitter seed. The engine is deterministic, so a
// profile always collects the same trace. Workloads keep profiles, not
// traces, through their timed phases: a trace held there would only add
// to the garbage collector's marking work, and the noise with it.
type profile struct {
	model  string
	batch  int
	jitter uint64
}

func (p profile) key() string { return fmt.Sprintf("%s@%d", p.model, p.batch) }

// seededProfile draws a batch size and jitter for model from rng.
func seededProfile(rng *rand.Rand, model string) profile {
	choices := batchChoices[model]
	return profile{model: model, batch: choices[rng.IntN(len(choices))], jitter: rng.Uint64()}
}

// collect runs the profile's iteration on the training engine with
// tracing on.
func (p profile) collect() (*trace.Trace, error) {
	m, err := dnn.ByNameAtBatch(p.model, p.batch)
	if err != nil {
		return nil, err
	}
	res, err := framework.Run(framework.Config{Model: m, Seed: p.jitter, CollectTrace: true})
	if err != nil {
		return nil, fmt.Errorf("collect %s: %w", p.key(), err)
	}
	return res.Trace, nil
}

// blob collects the profile's trace as JSON, the form uploads carry.
func (p profile) blob() ([]byte, error) {
	tr, err := p.collect()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// graph collects the profile and builds its dependency graph in memory,
// with the task-to-layer mapping applied.
func (p profile) graph() (*core.Graph, error) {
	tr, err := p.collect()
	if err != nil {
		return nil, err
	}
	g, err := core.Build(tr)
	if err != nil {
		return nil, err
	}
	core.MapLayers(g, tr.LayerSpans)
	return g, nil
}

// topology is the cluster the serve API describes by machines × GPUs at
// a NIC rate, with PCIe links inside a machine.
func topology(machines, gpus int, gbps float64) comm.Topology {
	return comm.Topology{
		Machines:       machines,
		GPUsPerMachine: gpus,
		NICBandwidth:   comm.Gbps(gbps),
		IntraBandwidth: 11e9,
		StepLatency:    15 * time.Microsecond,
	}
}

// scaleTargets names, per model, the kernel family a scale question
// speeds up.
var scaleTargets = map[string]string{
	"bert-base":   "Pointwise",
	"bert-large":  "sgemm",
	"densenet121": "scudnn",
	"gnmt":        "lstm",
	"resnet50":    "scudnn",
}

// clusterChoices are the clusters a seed picks for distributed questions.
var clusterChoices = []serve.Params{
	{Machines: 2, GPUsPerMachine: 1, GbpsNIC: 10},
	{Machines: 2, GPUsPerMachine: 2, GbpsNIC: 10},
	{Machines: 4, GPUsPerMachine: 1, GbpsNIC: 20},
	{Machines: 4, GPUsPerMachine: 2, GbpsNIC: 40},
}

// seededParams draws a question's parameters, in the serve API's form:
// the cluster, the upgrade target and the scale factor.
func seededParams(rng *rand.Rand, model string) serve.Params {
	p := clusterChoices[rng.IntN(len(clusterChoices))]
	p.FromDevice = "2080ti"
	p.ToDevice = []string{"v100", "p4000"}[rng.IntN(2)]
	p.ScaleTarget = scaleTargets[model]
	p.ScaleFactor = 0.5 + 0.4*rng.Float64()
	return p
}

// optParams maps the serve API's parameters onto the registry's the way
// the server does, so an in-process answer asks the same question.
func optParams(p serve.Params) whatif.OptParams {
	op := whatif.OptParams{
		FromDevice:  p.FromDevice,
		ToDevice:    p.ToDevice,
		ScaleTarget: p.ScaleTarget,
		ScaleFactor: p.ScaleFactor,
	}
	if p.Machines > 0 && p.GPUsPerMachine > 0 {
		op.Topology = topology(p.Machines, p.GPUsPerMachine, p.GbpsNIC)
	}
	return op
}

// simOpts runs a simulation under the scheduling policy opt carries.
func simOpts(opt core.Optimization) []core.SimOption {
	if s := core.OptScheduler(opt); s != nil {
		return []core.SimOption{core.WithScheduler(s)}
	}
	return nil
}

// measure reads a what-if's answer from its simulation: the metric the
// optimization defines, or the makespan.
func measure(opt core.Optimization, view core.TaskView, res *core.SimResult) (time.Duration, error) {
	if m := core.OptMeasure(opt); m != nil {
		return m(view, res)
	}
	return res.Makespan, nil
}

// patchAnswer predicts opt over base through a fresh patch.
func patchAnswer(base *core.Graph, opt core.Optimization) (time.Duration, error) {
	p := core.NewPatch(base)
	if err := opt.Apply(p); err != nil {
		return 0, err
	}
	res, err := p.Simulate(simOpts(opt)...)
	if err != nil {
		return 0, err
	}
	return measure(opt, p, res)
}

// groundTruth pairs the predict questions that have a training-engine
// configuration with that configuration and the models it applies to; nil
// models means every predict baseline.
var groundTruth = []struct {
	expr   string
	models []string
	set    func(*framework.Config)
}{
	{"amp", nil, func(c *framework.Config) { c.Precision = xpu.FP16 }},
	{"fusedadam", []string{"bert-large"}, func(c *framework.Config) {
		c.Optimizer, c.OptimizerSet = framework.OptFusedAdam, true
	}},
	{"amp+fusedadam", []string{"bert-large"}, func(c *framework.Config) {
		c.Precision = xpu.FP16
		c.Optimizer, c.OptimizerSet = framework.OptFusedAdam, true
	}},
	{"reconbn", []string{"resnet50", "densenet121"}, func(c *framework.Config) { c.ReconBatchnorm = true }},
	{"upgrade", nil, func(c *framework.Config) { c.Device = xpu.V100() }},
	{"distributed", nil, func(c *framework.Config) { c.Cluster = errCluster() }},
	{"amp+distributed", nil, func(c *framework.Config) {
		c.Precision = xpu.FP16
		c.Cluster = errCluster()
	}},
}

// errTopology is the cluster of the distributed ground-truth runs; the
// training engine syncs before each all-reduce, as in the paper's Figure 8.
var errTopology = topology(2, 2, 10)

func errCluster() *framework.Cluster {
	return &framework.Cluster{Topology: errTopology, Backend: framework.BackendNCCL, SyncBeforeComm: true}
}

// predErrPct is the mean |prediction − ground truth| / ground truth, in
// percent, over every ground-truth question on every predict baseline.
// It uses the zoo's default batch sizes and the engine's default jitter,
// not the run's seed: it is a property of the engine's predictions that
// must read the same on every run, and any change to a prediction moves
// it.
func predErrPct() (float64, error) {
	params := whatif.OptParams{Topology: errTopology, FromDevice: "2080ti", ToDevice: "v100"}
	var sum float64
	var n int
	for _, mq := range predictQuestions {
		model := mq.model
		m, err := dnn.ByName(model)
		if err != nil {
			return 0, err
		}
		base, err := profile{model: model, batch: m.BatchSize}.graph()
		if err != nil {
			return 0, err
		}
		for _, q := range groundTruth {
			if q.models != nil && !slices.Contains(q.models, model) {
				continue
			}
			opt, err := whatif.ParseStack(q.expr, params)
			if err != nil {
				return 0, err
			}
			pred, err := patchAnswer(base, opt)
			if err != nil {
				return 0, fmt.Errorf("%s on %s: %w", q.expr, model, err)
			}
			cfg := framework.Config{Model: m}
			q.set(&cfg)
			gt, err := framework.Run(cfg)
			if err != nil {
				return 0, fmt.Errorf("ground truth of %s on %s: %w", q.expr, model, err)
			}
			sum += math.Abs(float64(pred-gt.IterationTime)) / float64(gt.IterationTime)
			n++
		}
	}
	return 100 * sum / float64(n), nil
}
