package core

import (
	"testing"
	"time"

	"daydream/internal/trace"
)

func TestMapLayersBracketsLaunches(t *testing.T) {
	g := NewGraph()
	us := time.Microsecond
	mk := func(name string, kind trace.Kind, tid ThreadID, start time.Duration, corr uint64) *Task {
		task := g.NewTask(name, kind, tid, 5*us)
		task.TracedStart = start
		task.Correlation = corr
		g.AppendTask(task)
		return task
	}
	l1 := mk("cudaLaunchKernel", trace.KindLaunch, CPU(1), 0, 1)
	k1 := mk("k1", trace.KindKernel, Stream(7), 6*us, 1)
	l2 := mk("cudaLaunchKernel", trace.KindLaunch, CPU(1), 20*us, 2)
	k2 := mk("k2", trace.KindKernel, Stream(7), 26*us, 2)
	between := mk("op", trace.KindCPUOp, CPU(1), 12*us, 0)
	if err := g.Correlate(l1, k1); err != nil {
		t.Fatal(err)
	}
	if err := g.Correlate(l2, k2); err != nil {
		t.Fatal(err)
	}
	spans := []trace.LayerSpan{
		{Layer: "conv1", Index: 0, Phase: trace.Forward, Thread: 1, Start: 0, End: 10 * us},
		{Layer: "conv2", Index: 1, Phase: trace.Forward, Thread: 1, Start: 18 * us, End: 30 * us},
	}
	mapped := MapLayers(g, spans)
	if mapped != 4 { // two launches + two kernels via correlation
		t.Fatalf("mapped %d tasks, want 4", mapped)
	}
	if l1.Layer != "conv1" || k1.Layer != "conv1" {
		t.Errorf("first pair mapped to %q/%q", l1.Layer, k1.Layer)
	}
	if l2.Layer != "conv2" || k2.Layer != "conv2" {
		t.Errorf("second pair mapped to %q/%q", l2.Layer, k2.Layer)
	}
	if between.HasLayer {
		t.Error("task between spans must stay unmapped (framework glue)")
	}
	if k1.Phase != trace.Forward || k1.LayerIndex != 0 {
		t.Error("phase/index not propagated")
	}
}

func TestMapLayersEmptySpans(t *testing.T) {
	g, _ := chain(2, time.Microsecond)
	if MapLayers(g, nil) != 0 {
		t.Fatal("mapping without spans mapped something")
	}
}

func TestMapLayersRespectsThread(t *testing.T) {
	g := NewGraph()
	task := g.NewTask("op", trace.KindCPUOp, CPU(2), time.Microsecond)
	task.TracedStart = 5 * time.Microsecond
	g.AppendTask(task)
	spans := []trace.LayerSpan{{Layer: "l", Thread: 1, Start: 0, End: 10 * time.Microsecond}}
	if MapLayers(g, spans) != 0 {
		t.Fatal("span on thread 1 mapped a task on thread 2")
	}
}

func TestMappedFractionOnRealModels(t *testing.T) {
	// Launch-triggered GPU work inside layer spans should map almost
	// completely; only the input H2D copy and the loss D2H stay outside.
	g := modelGraph(t, "bert-base")
	if f := MappedFraction(g); f < 0.95 {
		t.Fatalf("mapped fraction %.3f, want ≥0.95", f)
	}
}

func TestMappedFractionEmpty(t *testing.T) {
	g, _ := chain(2, time.Microsecond)
	if MappedFraction(g) != 0 {
		t.Fatal("CPU-only graph has nonzero GPU mapped fraction")
	}
}

func TestWeightUpdatePhaseMapped(t *testing.T) {
	g := modelGraph(t, "bert-base")
	wu := g.Select(func(t *Task) bool { return t.OnGPU() && t.HasLayer && t.Phase == trace.WeightUpdate })
	// BERT-Base: ~199 tensors × 13 Adam kernels ≈ 2.6K (§6.3's count).
	if len(wu) < 2400 || len(wu) > 2900 {
		t.Fatalf("weight-update GPU kernels = %d, want ≈2600 (paper: 2633)", len(wu))
	}
}
