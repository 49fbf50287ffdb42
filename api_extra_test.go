package daydream_test

import (
	"bytes"
	"testing"

	"daydream"
	"daydream/internal/dnn"
)

func TestDiagnoseAPI(t *testing.T) {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "bert-large"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		t.Fatal(err)
	}
	byResource, byPhase, err := daydream.Diagnose(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(byResource) == 0 || len(byPhase) == 0 {
		t.Fatal("empty diagnosis")
	}
	// BERT-Large's critical path is CPU-dominated, led by the weight
	// update (the paper's §6.3 bottleneck).
	if byResource[0].Label != "cpu" {
		t.Errorf("dominant resource = %q, want cpu", byResource[0].Label)
	}
	if byPhase[0].Label != "weight_update" {
		t.Errorf("dominant phase = %q, want weight_update", byPhase[0].Label)
	}
}

func TestDeviceUpgradeAPI(t *testing.T) {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "resnet50"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The trace records the full marketing name; both resolve.
	upgrade, err := daydream.OptDeviceUpgrade(tr.Device, "v100")
	if err != nil {
		t.Fatal(err)
	}
	base, pred, err := daydream.Compare(g, upgrade)
	if err != nil {
		t.Fatal(err)
	}
	if pred >= base {
		t.Fatalf("V100 upgrade predicted no gain: %v vs %v", pred, base)
	}
	if _, err := daydream.OptDeviceUpgrade("tpu", "v100"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestKernelProfileAPI(t *testing.T) {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "resnet50"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		t.Fatal(err)
	}
	base, pred, err := daydream.Compare(g, daydream.OptKernelProfile(daydream.KernelProfile{"sgemm": 0}))
	if err != nil {
		t.Fatal(err)
	}
	if pred >= base {
		t.Fatalf("zero-time GEMMs predicted no gain (%v vs %v): profile matched nothing", pred, base)
	}
}

func TestMemoryAPI(t *testing.T) {
	m, err := daydream.ModelByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	f := daydream.EstimateMemory(m)
	if f.Total() <= 0 {
		t.Fatal("empty footprint")
	}
	b := daydream.MaxBatchSize(func(batch int) *daydream.Model {
		return dnn.ResNet50(batch)
	}, 11<<30)
	if b <= 0 {
		t.Fatal("nothing fits 11GB?")
	}
}

func TestChromeExportAPI(t *testing.T) {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "gnmt"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty chrome export")
	}
}
