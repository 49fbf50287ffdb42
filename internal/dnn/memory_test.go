package dnn

import "testing"

func TestEstimateMemoryComponents(t *testing.T) {
	m, _ := ByName("resnet50")
	f := EstimateMemory(m)
	if f.Params != m.ParamCount()*4 {
		t.Errorf("params = %d, want %d", f.Params, m.ParamCount()*4)
	}
	if f.Gradients != f.Params {
		t.Error("gradients must mirror params at fp32")
	}
	if f.OptimizerState != f.Params { // SGD momentum
		t.Error("SGD state must be one buffer per parameter")
	}
	if f.Activations <= 0 || f.Workspace <= 0 {
		t.Error("activation/workspace estimates missing")
	}
	if f.Total() != f.Params+f.Gradients+f.OptimizerState+f.Activations+f.Workspace {
		t.Error("Total does not sum components")
	}
}

func TestEstimateMemoryAdamState(t *testing.T) {
	m, _ := ByName("bert-base")
	f := EstimateMemory(m)
	if f.OptimizerState != 2*f.Params {
		t.Errorf("Adam state = %d, want 2× params %d", f.OptimizerState, 2*f.Params)
	}
}

func TestResNetFootprintPlausible(t *testing.T) {
	// ResNet-50 at batch 64 trains within ~4–11 GB on real hardware.
	m, _ := ByName("resnet50")
	gb := float64(EstimateMemory(m).Total()) / (1 << 30)
	if gb < 2 || gb > 12 {
		t.Errorf("ResNet-50/64 footprint = %.1f GB, implausible", gb)
	}
}

func TestOffloadableActivations(t *testing.T) {
	m, _ := ByName("resnet50")
	var convActs, all int64
	for _, l := range m.Layers {
		if l.Kind == Conv {
			convActs += l.ActBytes
		}
		all += l.ActBytes
	}
	if convActs <= 0 || convActs >= all {
		t.Errorf("conv activations %d of %d make no sense", convActs, all)
	}
}

func TestMaxBatchSize(t *testing.T) {
	const mem = 11 << 30 // 2080 Ti
	got := MaxBatchSize(func(b int) *Model { return ResNet50(b) }, mem)
	if got < 32 || got > 512 {
		t.Errorf("ResNet-50 max batch on 11GB = %d, implausible", got)
	}
	// The answer is exactly the fit boundary.
	if EstimateMemory(ResNet50(got)).Total() > mem {
		t.Error("reported batch does not fit")
	}
	if EstimateMemory(ResNet50(got+1)).Total() <= mem {
		t.Error("a larger batch would also fit")
	}
}

func TestMaxBatchSizeTooSmallMemory(t *testing.T) {
	if got := MaxBatchSize(func(b int) *Model { return ResNet50(b) }, 1<<20); got != 0 {
		t.Errorf("1MB fits batch %d, want 0", got)
	}
}

func TestMaxBatchSizeMonotoneInMemory(t *testing.T) {
	small := MaxBatchSize(func(b int) *Model { return ResNet50(b) }, 8<<30)
	large := MaxBatchSize(func(b int) *Model { return ResNet50(b) }, 16<<30)
	if large <= small {
		t.Errorf("more memory fits a smaller batch: %d vs %d", large, small)
	}
}
