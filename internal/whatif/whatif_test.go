package whatif_test

import (
	"testing"
	"time"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/sweep"
	"daydream/internal/trace"
	"daydream/internal/whatif"
)

// profile builds a mapped baseline graph for a zoo model.
func profile(t *testing.T, name string, dialect framework.Dialect) *core.Graph {
	t.Helper()
	m, err := dnn.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := framework.Run(framework.Config{Model: m, Dialect: dialect, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	core.MapLayers(g, res.Trace.LayerSpans)
	return g
}

func predict(t *testing.T, g *core.Graph) time.Duration {
	t.Helper()
	d, err := g.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func topo4x1(gbps float64) comm.Topology {
	return comm.Topology{
		Machines: 4, GPUsPerMachine: 1,
		NICBandwidth: comm.Gbps(gbps), IntraBandwidth: 11e9,
		StepLatency: 15 * time.Microsecond,
	}
}

func TestAMPScalesByNameRule(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	var gemmBefore, ewBefore time.Duration
	for _, u := range g.Select(core.OnGPUPred) {
		if core.NameContains("scudnn")(u) || core.NameContains("sgemm")(u) {
			gemmBefore += u.Duration
		} else if core.NameContains("elementwise")(u) {
			ewBefore += u.Duration
		}
	}
	g = applied(t, g, whatif.OptAMP())
	var gemmAfter, ewAfter time.Duration
	for _, u := range g.Select(core.OnGPUPred) {
		if core.NameContains("scudnn")(u) || core.NameContains("sgemm")(u) {
			gemmAfter += u.Duration
		} else if core.NameContains("elementwise")(u) {
			ewAfter += u.Duration
		}
	}
	if r := float64(gemmBefore) / float64(gemmAfter); r < 2.99 || r > 3.01 {
		t.Errorf("compute kernels scaled %.3fx, want 3x", r)
	}
	if r := float64(ewBefore) / float64(ewAfter); r < 1.99 || r > 2.01 {
		t.Errorf("memory-bound kernels scaled %.3fx, want 2x", r)
	}
}

func TestAMPLeavesCPUUntouched(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	var before time.Duration
	for _, u := range g.Tasks() {
		if u.OnCPU() {
			before += u.Duration + u.Gap
		}
	}
	g = applied(t, g, whatif.OptAMP())
	var after time.Duration
	for _, u := range g.Tasks() {
		if u.OnCPU() {
			after += u.Duration + u.Gap
		}
	}
	if before != after {
		t.Fatal("AMP modified CPU tasks")
	}
}

func TestFusedAdamConservesGPUSum(t *testing.T) {
	g := profile(t, "bert-base", framework.PyTorch)
	wu := g.Select(core.And(core.OnGPUPred, core.InPhase(trace.WeightUpdate)))
	var sum time.Duration
	for _, u := range wu {
		sum += u.Duration
	}
	c := applied(t, g, whatif.OptFusedAdam())
	// One fused kernel carries the Algorithm-4 sum; the superseded
	// kernels and their launches take no time.
	after := c.Select(core.And(core.OnGPUPred, core.InPhase(trace.WeightUpdate),
		func(u *core.Task) bool { return u.Duration != 0 }))
	if len(after) != 1 {
		t.Fatalf("fused weight update has %d timed GPU tasks, want 1", len(after))
	}
	if after[0].Duration != sum {
		t.Fatalf("fused kernel duration %v, want the Algorithm-4 sum %v", after[0].Duration, sum)
	}
	zeroed := 0
	for _, u := range c.Tasks() {
		if b := g.Task(u.ID); u.Duration+u.Gap == 0 && b.Duration+b.Gap != 0 {
			zeroed++
		}
	}
	if zeroed < 2*(len(wu)-1)-10 {
		t.Fatalf("zeroed %d tasks, want ≈%d (kernels + launches)", zeroed, 2*(len(wu)-1))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFusedAdamSpeedsUpBERT(t *testing.T) {
	g := profile(t, "bert-large", framework.PyTorch)
	base := predict(t, g.Clone())
	fused := predict(t, applied(t, g, whatif.OptFusedAdam()))
	if imp := 1 - float64(fused)/float64(base); imp < 0.10 {
		t.Fatalf("predicted FusedAdam improvement %.1f%%, want >10%%", 100*imp)
	}
}

func TestFusedAdamNeedsMapping(t *testing.T) {
	m, _ := dnn.ByName("bert-base")
	res, err := framework.Run(framework.Config{Model: m, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(res.Trace) // no MapLayers
	if err != nil {
		t.Fatal(err)
	}
	if err := whatif.OptFusedAdam().Apply(core.NewPatch(g)); err == nil {
		t.Fatal("FusedAdam without a layer mapping accepted")
	}
}

func TestReconBatchnorm(t *testing.T) {
	g := profile(t, "densenet121", framework.Caffe)
	reluBefore := len(g.Select(core.And(core.OnGPUPred, func(u *core.Task) bool {
		return u.HasLayer && u.Phase == trace.Forward && core.NameContains("relu")(u) == false && u.Layer != "" && containsStr(u.Layer, "relu")
	})))
	_ = reluBefore
	base := predict(t, g.Clone())
	c := applied(t, g, whatif.OptReconBatchnormRemoval(whatif.ReconBatchnormOptions{}))
	// No GPU task mapped to a ReLU layer survives.
	for _, u := range c.Select(core.OnGPUPred) {
		if u.HasLayer && containsStr(u.Layer, "relu") {
			t.Fatalf("ReLU kernel survived: %v", u)
		}
	}
	pred := predict(t, c)
	if pred >= base {
		t.Fatalf("reconstruction predicted no gain (%v vs %v)", pred, base)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// The timing-only zeroing form predicts the same iteration.
	if zeroed := predict(t, applied(t, g, whatif.OptReconBatchnorm(whatif.ReconBatchnormOptions{}))); zeroed != pred {
		t.Fatalf("zeroing form %v, removal form %v", zeroed, pred)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestDistributedInsertsBuckets(t *testing.T) {
	g := applied(t, profile(t, "resnet50", framework.PyTorch),
		whatif.OptDistributed(whatif.DistributedOptions{Topology: topo4x1(10)}))
	reduces := g.Select(func(t *core.Task) bool { return t.Kind == trace.KindComm })
	grads := append([]trace.GradientInfo(nil), g.Meta.Gradients...)
	buckets := comm.AssignBuckets(grads, comm.DefaultBucketBytes)
	if len(reduces) != len(buckets) {
		t.Fatalf("inserted %d allReduces, want %d buckets", len(reduces), len(buckets))
	}
	for _, r := range reduces {
		if len(r.Parents()) < 2 { // channel order + ≥1 bwd task
			t.Fatalf("allReduce %v lacks dependencies", r)
		}
		if len(r.Children()) == 0 {
			t.Fatalf("allReduce %v blocks nothing", r)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedSingleWorkerNoOp(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	p := core.NewPatch(g)
	if err := whatif.DistributedPatch(p, whatif.DistributedOptions{
		Topology: comm.Topology{Machines: 1, GPUsPerMachine: 1, IntraBandwidth: 11e9},
	}); err != nil {
		t.Fatal(err)
	}
	if p.Structural() {
		t.Fatal("single-worker Distributed inserted tasks")
	}
}

func TestDistributedSlowsWithLowerBandwidth(t *testing.T) {
	g := profile(t, "vgg19", framework.PyTorch)
	var prev time.Duration
	for _, gbps := range []float64{40, 10, 2} {
		cur := predict(t, applied(t, g, whatif.OptDistributed(whatif.DistributedOptions{Topology: topo4x1(gbps)})))
		if prev != 0 && cur <= prev {
			t.Fatalf("lower bandwidth predicted faster: %v at %vGbps vs %v", cur, gbps, prev)
		}
		prev = cur
	}
}

func TestP3PredictionStructure(t *testing.T) {
	g := profile(t, "vgg19", framework.MXNet)
	opts := whatif.P3Options{Topology: topo4x1(5), SliceBytes: 800 << 10}
	rep, err := whatif.P3(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.LayerPhaseIndex().Rounds(); r != 2 {
		t.Fatalf("rounds = %d, want 2", r)
	}
	pushes := rep.Select(core.NameContains("push "))
	pulls := rep.Select(core.NameContains("pull "))
	if len(pushes) == 0 || len(pushes) != len(pulls) {
		t.Fatalf("pushes %d, pulls %d", len(pushes), len(pulls))
	}
	if iter := p3Iteration(t, g, opts); iter <= 0 {
		t.Fatal("non-positive P3 iteration")
	}
}

// p3Iteration predicts OptP3's steady-state iteration time over g.
func p3Iteration(t *testing.T, g *core.Graph, opts whatif.P3Options) time.Duration {
	t.Helper()
	res, err := sweep.Run(g, []sweep.Scenario{{Opt: whatif.OptP3(opts)}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	return res[0].Value
}

func TestP3BeatsFIFOPrediction(t *testing.T) {
	g := profile(t, "vgg19", framework.MXNet)
	run := func(slice int64) time.Duration {
		return p3Iteration(t, g, whatif.P3Options{Topology: topo4x1(5), SliceBytes: slice})
	}
	fifo := run(0)       // whole tensors, no priorities
	p3 := run(800 << 10) // sliced + prioritized
	if float64(p3) > 0.95*float64(fifo) {
		t.Fatalf("P3 prediction (%v) should beat FIFO prediction (%v)", p3, fifo)
	}
}

func TestP3RequiresCluster(t *testing.T) {
	g := profile(t, "vgg19", framework.MXNet)
	if _, err := whatif.P3(g, whatif.P3Options{
		Topology: comm.Topology{Machines: 1, GPUsPerMachine: 1},
	}); err == nil {
		t.Fatal("single-worker P3 accepted")
	}
}

func TestBlueConnectReplacesAllReduce(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	dist := whatif.OptDistributed(whatif.DistributedOptions{Topology: topo4x1(10)})
	nReduce := len(applied(t, g, dist).Select(core.NameContains("AllReduce")))
	c := applied(t, g, core.Stack(dist, whatif.OptBlueConnect(whatif.BlueConnectOptions{
		Factors:     []int{2, 2},
		Bandwidths:  []float64{comm.Gbps(10), 11e9},
		StepLatency: 15 * time.Microsecond,
	})))
	if left := len(c.Select(core.NameContains("AllReduce"))); left != 0 {
		t.Fatalf("%d allReduce tasks survived", left)
	}
	stages := c.Select(func(t *core.Task) bool { return t.Kind == trace.KindComm })
	if nReduce == 0 || len(stages) != 4*nReduce { // 2 reduce-scatter + 2 all-gather each
		t.Fatalf("stage count = %d, want %d", len(stages), 4*nReduce)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictIteration(); err != nil {
		t.Fatal(err)
	}
}

func TestBlueConnectNeedsDistributedGraph(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	_, err := materialized(g, whatif.OptBlueConnect(whatif.BlueConnectOptions{
		Factors: []int{2}, Bandwidths: []float64{1e9},
	}))
	if err == nil {
		t.Fatal("BlueConnect on a single-GPU graph accepted")
	}
}

func TestMetaFlowRemoveAndScale(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	base := predict(t, g.Clone())
	c := applied(t, g, whatif.OptMetaFlow([]whatif.Substitution{{
		Remove: []string{"layer1.0.relu1"},
		Scale:  map[string]float64{"layer1.0.conv2": 0.5},
	}}))
	if pred := predict(t, c); pred >= base {
		t.Fatalf("substitution predicted no gain (%v vs %v)", pred, base)
	}
	if _, err := materialized(g, whatif.OptMetaFlow([]whatif.Substitution{{Remove: []string{"no_such_layer"}}})); err == nil {
		t.Fatal("unknown layer accepted")
	}
	if _, err := materialized(g, whatif.OptMetaFlow([]whatif.Substitution{{Scale: map[string]float64{"no_such_layer": 2}}})); err == nil {
		t.Fatal("unknown layer accepted")
	}
}

func TestVDNNAddsOverhead(t *testing.T) {
	g := profile(t, "vgg19", framework.PyTorch)
	base := predict(t, g.Clone())
	c := applied(t, g, whatif.OptVDNN(whatif.VDNNOptions{}))
	pred := predict(t, c)
	if pred <= base {
		t.Fatalf("vDNN predicted a speedup (%v vs %v); it must cost time", pred, base)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	offloads := c.Select(core.NameContains("vdnn_offload"))
	prefetches := c.Select(core.NameContains("vdnn_prefetch"))
	if len(offloads) == 0 || len(offloads) != len(prefetches) {
		t.Fatalf("offloads %d, prefetches %d", len(offloads), len(prefetches))
	}
}

func TestVDNNPrefetchDistanceMatters(t *testing.T) {
	g := profile(t, "vgg19", framework.PyTorch)
	run := func(dist int) time.Duration {
		return predict(t, applied(t, g, whatif.OptVDNN(whatif.VDNNOptions{PrefetchDistance: dist})))
	}
	near := run(1)
	far := run(8)
	if far > near {
		t.Fatalf("earlier prefetching (%v) should not be slower than later (%v)", far, near)
	}
}

func TestGistAddsOverhead(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	base := predict(t, g.Clone())
	c := applied(t, g, whatif.OptGist(whatif.GistOptions{}))
	pred := predict(t, c)
	if pred <= base {
		t.Fatalf("Gist predicted a speedup (%v vs %v); encode/decode must cost time", pred, base)
	}
	overhead := float64(pred-base) / float64(base)
	if overhead > 0.25 {
		t.Fatalf("Gist overhead %.1f%% implausibly large", 100*overhead)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGistLossyAddsMore(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	lossless := applied(t, g, whatif.OptGist(whatif.GistOptions{}))
	lossy := applied(t, g, whatif.OptGist(whatif.GistOptions{Lossy: true}))
	if lossy.NumTasks() <= lossless.NumTasks() {
		t.Fatal("lossy Gist should insert extra DPR kernels")
	}
}

func TestDGCShrinksCommunication(t *testing.T) {
	g := profile(t, "vgg19", framework.PyTorch)
	dist := whatif.OptDistributed(whatif.DistributedOptions{Topology: topo4x1(2)})
	base := predict(t, applied(t, g, dist))
	c := applied(t, g, core.Stack(dist, whatif.OptDGC(whatif.DGCOptions{})))
	pred := predict(t, c)
	if float64(pred) > 0.8*float64(base) {
		t.Fatalf("DGC on a comm-bound model predicted only %v vs %v", pred, base)
	}
	kernels := c.Select(core.NameContains("dgc_"))
	if len(kernels) == 0 {
		t.Fatal("no compression kernels inserted")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDGCNeedsDistributedGraph(t *testing.T) {
	g := profile(t, "vgg19", framework.PyTorch)
	if _, err := materialized(g, whatif.OptDGC(whatif.DGCOptions{})); err == nil {
		t.Fatal("DGC on a single-GPU graph accepted")
	}
}
