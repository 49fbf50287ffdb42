package framework

import (
	"testing"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/trace"
	"daydream/internal/xpu"
)

// TestConcurrentPlusDistributed combines the §7.5 multi-stream mode with
// DDP: the engine must keep its invariants (valid trace, comm records,
// concurrency no slower) when both features are on.
func TestConcurrentPlusDistributed(t *testing.T) {
	m, _ := dnn.ByName("resnet50")
	cluster := &Cluster{Topology: topo(2, 1, 10), Backend: BackendNCCL, SyncBeforeComm: true}
	serial := mustRun(t, Config{Model: m, Cluster: cluster, CollectTrace: true})
	conc := mustRun(t, Config{Model: m, Cluster: cluster, ConcurrentKernels: true, CollectTrace: true})
	if err := conc.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(conc.Comm) != len(serial.Comm) {
		t.Fatalf("comm records differ: %d vs %d", len(conc.Comm), len(serial.Comm))
	}
	if conc.IterationTime > serial.IterationTime {
		t.Fatalf("concurrency slowed the distributed run: %v vs %v",
			conc.IterationTime, serial.IterationTime)
	}
}

// TestPSMultiGPUPerMachine checks the parameter-server model handles
// several workers per machine (the server-load factor n/servers grows).
func TestPSMultiGPUPerMachine(t *testing.T) {
	m := dnn.VGG19(16)
	run := func(gpus int) *Result {
		return mustRun(t, Config{
			Model: m, Device: xpu.P4000(), Dialect: MXNet,
			Cluster: &Cluster{Topology: topo(4, gpus, 10), Backend: BackendPS},
		})
	}
	one, two := run(1), run(2)
	if two.IterationTime <= one.IterationTime {
		t.Fatalf("doubling workers per machine should add server load: %v vs %v",
			two.IterationTime, one.IterationTime)
	}
}

// TestSparseEmbeddingUpdate checks that GNMT's huge embedding tables get
// sparse (activation-bounded) optimizer traffic rather than full-table
// rewrites.
func TestSparseEmbeddingUpdate(t *testing.T) {
	m, _ := dnn.ByName("gnmt")
	res := mustRun(t, Config{Model: m, CollectTrace: true})
	g, err := core.Build(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	core.MapLayers(g, res.Trace.LayerSpans)
	// The embedding layers' weight-update kernels must be far smaller
	// than a full-table (131 MB ≈ 230 µs) rewrite would be.
	emb := g.Select(func(t *core.Task) bool {
		return t.OnGPU() && t.HasLayer && t.Phase == trace.WeightUpdate && t.Layer == "encoder.embedding"
	})
	if len(emb) == 0 {
		t.Fatal("no embedding weight-update kernels")
	}
	for _, u := range emb {
		if u.Duration > 50*1000 { // 50µs in ns
			t.Fatalf("embedding WU kernel %v too slow for a sparse update", u.Duration)
		}
	}
}

// TestBucketMetadataMatchesAssignment cross-checks the trace's bucket
// metadata against a fresh bucketing of the same gradients.
func TestBucketMetadataMatchesAssignment(t *testing.T) {
	m, _ := dnn.ByName("bert-large")
	res := mustRun(t, Config{
		Model:        m,
		Cluster:      &Cluster{Topology: topo(2, 1, 10), Backend: BackendNCCL},
		CollectTrace: true,
	})
	fromTrace := comm.BucketsFromTrace(res.Trace.Gradients)
	grads := make([]trace.GradientInfo, len(res.Trace.Gradients))
	copy(grads, res.Trace.Gradients)
	for i := range grads {
		grads[i].Bucket = -1
	}
	fresh := comm.AssignBuckets(grads, comm.DefaultBucketBytes)
	if len(fromTrace) != len(fresh) {
		t.Fatalf("bucket counts differ: %d vs %d", len(fromTrace), len(fresh))
	}
	for i := range fresh {
		if fromTrace[i].Bytes != fresh[i].Bytes {
			t.Fatalf("bucket %d bytes differ: %d vs %d", i, fromTrace[i].Bytes, fresh[i].Bytes)
		}
	}
}

// TestConcurrentKernelsOnlyWhereBranches checks the flag is inert for
// models without side branches.
func TestConcurrentKernelsOnlyWhereBranches(t *testing.T) {
	m, _ := dnn.ByName("bert-base") // no Branch layers
	res := mustRun(t, Config{Model: m, ConcurrentKernels: true, CollectTrace: true})
	if got := res.Trace.Streams(); len(got) != 1 {
		t.Fatalf("branch-free model used streams %v", got)
	}
}
