package daydream_test

import (
	"testing"
	"time"

	"daydream"
	"daydream/internal/dnn"
)

func TestCollectAndBuild(t *testing.T) {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "resnet50"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Model != "ResNet-50" || tr.IterationTime <= 0 {
		t.Fatalf("trace = %s/%v", tr.Model, tr.IterationTime)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() == 0 {
		t.Fatal("empty graph")
	}
	replay, err := g.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	rel := float64(replay-tr.IterationTime) / float64(tr.IterationTime)
	if rel < -0.01 || rel > 0.01 {
		t.Fatalf("replay %v vs traced %v", replay, tr.IterationTime)
	}
}

func TestCollectValidation(t *testing.T) {
	if _, err := daydream.Collect(daydream.CollectConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := daydream.Collect(daydream.CollectConfig{Model: "nope"}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := daydream.Collect(daydream.CollectConfig{Model: "resnet50", Device: "tpu"}); err == nil {
		t.Error("unknown device accepted")
	}
	if _, err := daydream.Collect(daydream.CollectConfig{Model: "resnet50", Framework: "tf"}); err == nil {
		t.Error("unknown framework accepted")
	}
}

func TestCollectCustomModel(t *testing.T) {
	m := dnn.ResNet50(16) // non-default batch
	tr, err := daydream.Collect(daydream.CollectConfig{CustomModel: m})
	if err != nil {
		t.Fatal(err)
	}
	if tr.BatchSize != 16 {
		t.Fatalf("batch = %d, want 16", tr.BatchSize)
	}
}

func TestCollectDevices(t *testing.T) {
	fast, err := daydream.Collect(daydream.CollectConfig{Model: "resnet50", Device: "v100"})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := daydream.Collect(daydream.CollectConfig{Model: "resnet50", Device: "p4000"})
	if err != nil {
		t.Fatal(err)
	}
	if fast.IterationTime >= slow.IterationTime {
		t.Fatalf("V100 (%v) not faster than P4000 (%v)", fast.IterationTime, slow.IterationTime)
	}
}

func TestCompareAMP(t *testing.T) {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "resnet50"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		t.Fatal(err)
	}
	base, pred, err := daydream.Compare(g, daydream.OptAMP())
	if err != nil {
		t.Fatal(err)
	}
	if pred >= base {
		t.Fatalf("AMP predicted no gain: %v vs %v", pred, base)
	}
	// Compare must not mutate the input graph.
	again, err := g.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	if again != base {
		t.Fatal("Compare mutated the baseline graph")
	}
}

func TestDistributedAPI(t *testing.T) {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "gnmt"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		t.Fatal(err)
	}
	topo := daydream.NewTopology(4, 2, 10)
	if topo.TotalGPUs() != 8 {
		t.Fatal("topology wrong")
	}
	base, pred, err := daydream.Compare(g, daydream.OptDistributed(topo))
	if err != nil {
		t.Fatal(err)
	}
	if pred <= base {
		t.Fatal("communication predicted free")
	}
}

func TestP3PredictionAPI(t *testing.T) {
	tr, err := daydream.Collect(daydream.CollectConfig{
		Model: "vgg19", Device: "p4000", Framework: "mxnet",
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		t.Fatal(err)
	}
	_, iter, err := daydream.Compare(g, daydream.OptP3(daydream.NewTopology(4, 1, 5), 0))
	if err != nil {
		t.Fatal(err)
	}
	if iter <= 0 {
		t.Fatal("non-positive P3 prediction")
	}
	_, fifo, err := daydream.Compare(g, daydream.OptP3(daydream.NewTopology(4, 1, 5), -1))
	if err != nil {
		t.Fatal(err)
	}
	if iter > fifo {
		t.Fatalf("P3 (%v) should not lose to FIFO (%v)", iter, fifo)
	}
}

func TestFusedAdamAndReconAPI(t *testing.T) {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "bert-base"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		t.Fatal(err)
	}
	base, pred, err := daydream.Compare(g, daydream.OptFusedAdam())
	if err != nil {
		t.Fatal(err)
	}
	if pred >= base {
		t.Fatal("FusedAdam predicted no gain on BERT")
	}

	dtr, err := daydream.Collect(daydream.CollectConfig{Model: "densenet121", Framework: "caffe"})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := daydream.BuildGraph(dtr)
	if err != nil {
		t.Fatal(err)
	}
	base, pred, err = daydream.Compare(dg, daydream.OptReconBatchnorm())
	if err != nil {
		t.Fatal(err)
	}
	if pred >= base {
		t.Fatal("reconstruction predicted no gain on DenseNet")
	}
}

func TestModelNames(t *testing.T) {
	names := daydream.ModelNames()
	if len(names) != 7 {
		t.Fatalf("zoo = %v", names)
	}
	if _, err := daydream.ModelByName(names[0]); err != nil {
		t.Fatal(err)
	}
}

func TestGbps(t *testing.T) {
	if daydream.Gbps(8) != 1e9 {
		t.Fatal("Gbps conversion wrong")
	}
}

func TestBreakdownAPI(t *testing.T) {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "resnet50", MixedPrecision: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Precision != "fp16" {
		t.Fatalf("precision = %q", tr.Precision)
	}
	b := daydream.ComputeBreakdown(tr)
	if b.Total() != tr.IterationTime {
		t.Fatal("breakdown doesn't add up")
	}
	_ = time.Duration(0)
}
