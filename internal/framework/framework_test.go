package framework

import (
	"bytes"
	"testing"

	"daydream/internal/comm"
	"daydream/internal/dnn"
	"daydream/internal/trace"
	"daydream/internal/xpu"
)

func topo(machines, gpus int, gbps float64) comm.Topology {
	return comm.Topology{
		Machines:       machines,
		GPUsPerMachine: gpus,
		NICBandwidth:   comm.Gbps(gbps),
		IntraBandwidth: 11e9,
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunRequiresModel(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestFusedAdamRequiresAdamModel(t *testing.T) {
	m, _ := dnn.ByName("resnet50")
	_, err := Run(Config{Model: m, Optimizer: OptFusedAdam, OptimizerSet: true})
	if err == nil {
		t.Fatal("FusedAdam on an SGD model accepted")
	}
}

func TestDeterminism(t *testing.T) {
	m, _ := dnn.ByName("resnet50")
	a := mustRun(t, Config{Model: m, CollectTrace: true})
	b := mustRun(t, Config{Model: m, CollectTrace: true})
	if a.IterationTime != b.IterationTime {
		t.Fatalf("same config, different times: %v vs %v", a.IterationTime, b.IterationTime)
	}
	if len(a.Trace.Activities) != len(b.Trace.Activities) {
		t.Fatal("same config, different trace sizes")
	}
	for i := range a.Trace.Activities {
		if a.Trace.Activities[i] != b.Trace.Activities[i] {
			t.Fatalf("activity %d differs between identical runs", i)
		}
	}
}

func TestSeedChangesRun(t *testing.T) {
	m, _ := dnn.ByName("resnet50")
	a := mustRun(t, Config{Model: m})
	b := mustRun(t, Config{Model: m, Seed: 12345})
	if a.IterationTime == b.IterationTime {
		t.Fatal("different seeds produced identical iteration times")
	}
	// But not wildly different: jitter is a few percent.
	ratio := float64(a.IterationTime) / float64(b.IterationTime)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("seed changed iteration time by more than jitter: %v vs %v", a.IterationTime, b.IterationTime)
	}
}

func TestTraceShape(t *testing.T) {
	m, _ := dnn.ByName("gnmt")
	res := mustRun(t, Config{Model: m, CollectTrace: true})
	tr := res.Trace
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	st := trace.ComputeStats(tr)
	if st.Count[trace.KindKernel] == 0 || st.Count[trace.KindLaunch] == 0 ||
		st.Count[trace.KindSync] == 0 || st.Count[trace.KindDataLoad] == 0 {
		t.Fatalf("trace missing activity kinds: %v", st.Count)
	}
	if st.Count[trace.KindKernel] > st.Count[trace.KindLaunch] {
		t.Error("more kernels than launch calls")
	}
	// Every phase appears in the layer spans.
	phases := map[trace.Phase]bool{}
	for _, s := range tr.LayerSpans {
		phases[s.Phase] = true
	}
	for _, p := range []trace.Phase{trace.Forward, trace.Backward, trace.WeightUpdate} {
		if !phases[p] {
			t.Errorf("no %v layer spans", p)
		}
	}
	if tr.IterationTime <= 0 {
		t.Error("non-positive iteration time")
	}
}

func TestAMPFasterThanFP32(t *testing.T) {
	for _, name := range dnn.Names() {
		m, _ := dnn.ByName(name)
		fp32 := mustRun(t, Config{Model: m})
		fp16 := mustRun(t, Config{Model: m, Precision: xpu.FP16})
		if fp16.IterationTime >= fp32.IterationTime {
			t.Errorf("%s: AMP no faster (%v vs %v)", name, fp16.IterationTime, fp32.IterationTime)
		}
		// End-to-end AMP speedups stay within physical bounds (< the
		// 3x tensor-core ceiling).
		if r := float64(fp32.IterationTime) / float64(fp16.IterationTime); r > 3 {
			t.Errorf("%s: AMP speedup %.2f exceeds the per-kernel ceiling", name, r)
		}
	}
}

func TestFusedAdamFasterThanUnfused(t *testing.T) {
	for _, name := range []string{"bert-base", "bert-large"} {
		m, _ := dnn.ByName(name)
		unfused := mustRun(t, Config{Model: m})
		fused := mustRun(t, Config{Model: m, Optimizer: OptFusedAdam, OptimizerSet: true})
		imp := 1 - float64(fused.IterationTime)/float64(unfused.IterationTime)
		if imp < 0.10 {
			t.Errorf("%s: FusedAdam improvement %.1f%%, want >10%% (paper: 20–39%%)", name, 100*imp)
		}
	}
}

func TestDistributedSlowerThanSingle(t *testing.T) {
	m, _ := dnn.ByName("resnet50")
	single := mustRun(t, Config{Model: m})
	dist := mustRun(t, Config{
		Model:   m,
		Cluster: &Cluster{Topology: topo(4, 1, 10), Backend: BackendNCCL},
	})
	if dist.IterationTime <= single.IterationTime {
		t.Fatal("adding communication made the iteration faster")
	}
}

func TestSyncBeforeCommNeverDegrades(t *testing.T) {
	// The paper's §6.5 finding: adding synchronization before NCCL
	// primitives "does not lead to performance degradation in any
	// configuration" and helps in comm-bound ones.
	m, _ := dnn.ByName("gnmt")
	for _, gbps := range []float64{10, 40} {
		base := mustRun(t, Config{
			Model:   m,
			Cluster: &Cluster{Topology: topo(4, 2, gbps), Backend: BackendNCCL},
		})
		sync := mustRun(t, Config{
			Model:   m,
			Cluster: &Cluster{Topology: topo(4, 2, gbps), Backend: BackendNCCL, SyncBeforeComm: true},
		})
		if float64(sync.IterationTime) > 1.02*float64(base.IterationTime) {
			t.Errorf("%vGbps: sync variant slower (%v vs %v)", gbps, sync.IterationTime, base.IterationTime)
		}
	}
}

func TestCommRecordOrdering(t *testing.T) {
	m, _ := dnn.ByName("gnmt")
	res := mustRun(t, Config{
		Model:   m,
		Cluster: &Cluster{Topology: topo(2, 1, 10), Backend: BackendNCCL},
	})
	if len(res.Comm) == 0 {
		t.Fatal("no communication records")
	}
	for _, c := range res.Comm {
		if c.Theoretical <= 0 || c.Exclusive < c.Theoretical {
			t.Errorf("record %+v: want Exclusive ≥ Theoretical > 0", c)
		}
		if c.Actual < c.Exclusive {
			t.Errorf("record %+v: want Actual ≥ Exclusive", c)
		}
	}
}

func TestNCCLBucketCount(t *testing.T) {
	m, _ := dnn.ByName("resnet50")
	res := mustRun(t, Config{
		Model:        m,
		Cluster:      &Cluster{Topology: topo(2, 1, 10), Backend: BackendNCCL},
		CollectTrace: true,
	})
	buckets := comm.BucketsFromTrace(res.Trace.Gradients)
	if len(buckets) == 0 {
		t.Fatal("no buckets in trace metadata")
	}
	if len(res.Comm) != len(buckets) {
		t.Fatalf("comm records %d != buckets %d", len(res.Comm), len(buckets))
	}
}

func TestPSBandwidthSensitivity(t *testing.T) {
	m := dnn.VGG19(16)
	slow := mustRun(t, Config{
		Model: m, Device: xpu.P4000(), Dialect: MXNet,
		Cluster: &Cluster{Topology: topo(4, 1, 2), Backend: BackendPS},
	})
	fast := mustRun(t, Config{
		Model: m, Device: xpu.P4000(), Dialect: MXNet,
		Cluster: &Cluster{Topology: topo(4, 1, 20), Backend: BackendPS},
	})
	if slow.IterationTime <= fast.IterationTime {
		t.Fatal("PS training insensitive to bandwidth")
	}
}

func TestP3BeatsFIFOWhenCommBound(t *testing.T) {
	m := dnn.VGG19(16)
	run := func(p3 bool) *Result {
		return mustRun(t, Config{
			Model: m, Device: xpu.P4000(), Dialect: MXNet,
			Cluster: &Cluster{Topology: topo(4, 1, 5), Backend: BackendPS, P3: p3},
		})
	}
	fifo, p3 := run(false), run(true)
	if float64(p3.IterationTime) > 0.9*float64(fifo.IterationTime) {
		t.Errorf("P3 (%v) should clearly beat FIFO (%v) at 5 Gbps", p3.IterationTime, fifo.IterationTime)
	}
}

func TestReconBatchnormFaster(t *testing.T) {
	m, _ := dnn.ByName("densenet121")
	base := mustRun(t, Config{Model: m, Dialect: Caffe})
	recon := mustRun(t, Config{Model: m, Dialect: Caffe, ReconBatchnorm: true})
	if recon.IterationTime >= base.IterationTime {
		t.Fatal("reconstructed batchnorm did not help")
	}
}

func TestDialectOverheadOrdering(t *testing.T) {
	m, _ := dnn.ByName("resnet50")
	pt := mustRun(t, Config{Model: m, Dialect: PyTorch})
	cf := mustRun(t, Config{Model: m, Dialect: Caffe})
	if cf.IterationTime >= pt.IterationTime {
		t.Error("Caffe (C++ dispatch) should be at least as fast as PyTorch")
	}
}

func TestTraceJSONRoundTripStaysValid(t *testing.T) {
	m, _ := dnn.ByName("densenet121")
	res := mustRun(t, Config{Model: m, CollectTrace: true})
	var buf bytes.Buffer
	if err := res.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.IterationTime != res.Trace.IterationTime {
		t.Error("iteration time lost in round trip")
	}
	if len(got.Activities) != len(res.Trace.Activities) {
		t.Error("activities lost in round trip")
	}
}

func TestGradientMetadata(t *testing.T) {
	m, _ := dnn.ByName("vgg19")
	res := mustRun(t, Config{Model: m, CollectTrace: true})
	var total int64
	for _, g := range res.Trace.Gradients {
		total += g.Bytes
	}
	if want := m.ParamCount() * 4; total != want {
		t.Fatalf("gradient metadata sums to %d, want %d", total, want)
	}
	// Single-GPU runs leave gradients unbucketed.
	for _, g := range res.Trace.Gradients {
		if g.Bucket != -1 {
			t.Fatal("single-GPU trace should not assign buckets")
		}
	}
}

func TestDistributedTraceHasCommTasks(t *testing.T) {
	m, _ := dnn.ByName("resnet50")
	res := mustRun(t, Config{
		Model:        m,
		Cluster:      &Cluster{Topology: topo(2, 1, 10), Backend: BackendNCCL},
		CollectTrace: true,
	})
	n := 0
	for _, a := range res.Trace.Activities {
		if a.Kind == trace.KindComm {
			n++
		}
	}
	if n != len(res.Comm) {
		t.Fatalf("trace has %d comm activities, records say %d", n, len(res.Comm))
	}
}

func TestScalingWithWorkerCount(t *testing.T) {
	m, _ := dnn.ByName("bert-large")
	prev := mustRun(t, Config{Model: m}).IterationTime
	for _, workers := range []int{2, 4} {
		cur := mustRun(t, Config{
			Model:   m,
			Cluster: &Cluster{Topology: topo(workers, 1, 10), Backend: BackendNCCL},
		}).IterationTime
		if cur <= prev {
			t.Errorf("%d workers (%v) not slower than previous (%v): ring cost grows with n", workers, cur, prev)
		}
		prev = cur
	}
}

func TestBreakdownAddsUp(t *testing.T) {
	m, _ := dnn.ByName("bert-base")
	res := mustRun(t, Config{Model: m, CollectTrace: true})
	b := trace.ComputeBreakdown(res.Trace)
	if b.Total() != res.IterationTime {
		t.Fatalf("breakdown total %v != iteration %v", b.Total(), res.IterationTime)
	}
	if b.CPUOnly < 0 || b.GPUOnly < 0 || b.Parallel < 0 {
		t.Fatal("negative breakdown component")
	}
}

func TestOptimizerStrings(t *testing.T) {
	if OptSGD.String() != "sgd" || OptAdam.String() != "adam" || OptFusedAdam.String() != "fused_adam" {
		t.Error("optimizer strings wrong")
	}
	if PyTorch.String() != "pytorch" || MXNet.String() != "mxnet" || Caffe.String() != "caffe" {
		t.Error("dialect strings wrong")
	}
}
