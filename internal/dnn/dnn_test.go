package dnn

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// TestZooParameterCounts checks every model's parameter count against the
// published values (our analytic builders should land within a few percent
// of the canonical numbers).
func TestZooParameterCounts(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi float64 // millions of parameters
	}{
		{"resnet50", 24, 30},     // canonical 25.6M (+ our downsample accounting)
		{"vgg19", 140, 147},      // canonical 143.7M
		{"densenet121", 7, 9},    // canonical 8.0M
		{"gnmt", 140, 220},       // large embeddings + 8 LSTM directions
		{"bert-base", 104, 115},  // canonical 110M
		{"bert-large", 325, 345}, // canonical 340M
		{"transformer", 80, 105}, // base (unshared embeddings)
	}
	for _, c := range cases {
		m, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(m.ParamCount()) / 1e6
		if got < c.lo || got > c.hi {
			t.Errorf("%s: %.1fM params, want in [%v, %v]M", c.name, got, c.lo, c.hi)
		}
	}
}

// TestBERTTensorCounts pins the per-block parameter-tensor structure that
// drives the paper's §6.3 kernel counts: 16 tensors per Transformer block,
// so BERT-Base's ~200 tensors × 13 Adam kernels ≈ the 2633 weight-update
// kernels the paper reports.
func TestBERTTensorCounts(t *testing.T) {
	base, _ := ByName("bert-base")
	large, _ := ByName("bert-large")
	if n := base.ParamTensorCount(); n < 190 || n > 210 {
		t.Errorf("BERT-Base tensor count = %d, want ≈199", n)
	}
	if n := large.ParamTensorCount(); n < 380 || n > 400 {
		t.Errorf("BERT-Large tensor count = %d, want ≈391", n)
	}
	// Per-block: 16 tensors (q/k/v/out/fc1/fc2 pairs + two LayerNorms).
	perBlock := 0
	for _, l := range base.Layers {
		if strings.HasPrefix(l.Name, "encoder.layer0.") {
			perBlock += len(l.Tensors)
		}
	}
	if perBlock != 16 {
		t.Errorf("tensors per BERT block = %d, want 16", perBlock)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("alexnet"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Error("Names() not sorted")
	}
	if len(names) != 7 {
		t.Errorf("zoo has %d models, want 7", len(names))
	}
}

// TestKernelExpansion checks that every layer with forward cost expands to
// at least one kernel in both directions, and that kernel work sums to the
// layer's accounting.
func TestKernelExpansion(t *testing.T) {
	for _, name := range Names() {
		m, _ := ByName(name)
		for _, l := range m.Layers {
			if l.Kind == DataPrep {
				continue
			}
			fwd, bwd := l.ForwardKernels(), l.BackwardKernels()
			if len(fwd) == 0 {
				t.Fatalf("%s/%s: no forward kernels", name, l.Name)
			}
			if len(bwd) == 0 {
				t.Fatalf("%s/%s: no backward kernels", name, l.Name)
			}
			var fb float64
			for _, k := range fwd {
				if k.Bytes < 0 || k.FLOPs < 0 {
					t.Fatalf("%s/%s: negative kernel cost", name, l.Name)
				}
				fb += k.Bytes
			}
			if l.BytesFwd > 0 && (fb < 0.5*l.BytesFwd || fb > 1.5*l.BytesFwd) {
				t.Errorf("%s/%s: fwd kernel bytes %.0f vs layer %.0f", name, l.Name, fb, l.BytesFwd)
			}
		}
	}
}

// TestBackwardRoughlyTwiceForward checks the standard 2× rule for the
// parameterized compute layers.
func TestBackwardRoughlyTwiceForward(t *testing.T) {
	m, _ := ByName("resnet50")
	for _, l := range m.Layers {
		if l.Kind != Conv && l.Kind != Linear {
			continue
		}
		r := l.FLOPsBwd / l.FLOPsFwd
		if r < 1.9 || r > 2.1 {
			t.Errorf("%s: bwd/fwd FLOPs = %.2f, want ≈2", l.Name, r)
		}
	}
}

func TestLayerIndicesAreDense(t *testing.T) {
	for _, name := range Names() {
		m, _ := ByName(name)
		for i, l := range m.Layers {
			if l.Index != i {
				t.Fatalf("%s: layer %q index %d at position %d", name, l.Name, l.Index, i)
			}
		}
	}
}

func TestLayerNamesUnique(t *testing.T) {
	for _, name := range Names() {
		m, _ := ByName(name)
		seen := map[string]bool{}
		for _, l := range m.Layers {
			if seen[l.Name] {
				t.Fatalf("%s: duplicate layer name %q", name, l.Name)
			}
			seen[l.Name] = true
		}
	}
}

func TestCPUOpsPositive(t *testing.T) {
	for _, name := range Names() {
		m, _ := ByName(name)
		for _, l := range m.Layers {
			if l.CPUOps() < 1 {
				t.Fatalf("%s/%s: CPUOps = %d", name, l.Name, l.CPUOps())
			}
		}
	}
}

func TestGradBytes(t *testing.T) {
	m, _ := ByName("vgg19")
	var total int64
	for _, l := range m.Layers {
		total += l.GradBytes()
	}
	if want := m.ParamCount() * 4; total != want {
		t.Errorf("per-layer gradients sum %d != fp32 model total %d", total, want)
	}
	// VGG-19 gradients ≈ 548–588 MB (the paper's P3 motivation).
	mb := float64(total) / (1 << 20)
	if mb < 530 || mb > 600 {
		t.Errorf("VGG-19 gradient payload = %.0f MB, want ≈575", mb)
	}
}

// layersOfKind returns m's layers of kind k, in order.
func layersOfKind(m *Model, k LayerKind) []*Layer {
	var out []*Layer
	for _, l := range m.Layers {
		if l.Kind == k {
			out = append(out, l)
		}
	}
	return out
}

func TestLSTMKernelStructure(t *testing.T) {
	m, _ := ByName("gnmt")
	lstm := layersOfKind(m, LSTM)
	if len(lstm) != 8 { // 4 encoder (first bidirectional) + 4 decoder
		t.Fatalf("GNMT LSTM layer count = %d, want 8", len(lstm))
	}
	l := lstm[0]
	fwd := l.ForwardKernels()
	// 1 input GEMM + SeqChunks × (recurrent GEMM + gate elementwise).
	want := 1 + 2*l.SeqChunks
	if len(fwd) != want {
		t.Errorf("LSTM fwd kernels = %d, want %d", len(fwd), want)
	}
	bwd := l.BackwardKernels()
	if len(bwd) != want+1 { // + wgrad GEMM
		t.Errorf("LSTM bwd kernels = %d, want %d", len(bwd), want+1)
	}
}

func TestInputBytes(t *testing.T) {
	vision, _ := ByName("resnet50")
	if vision.InputBytes() != int64(vision.BatchSize)*3*224*224*4 {
		t.Error("vision input bytes wrong")
	}
	seq, _ := ByName("bert-base")
	if seq.InputBytes() != int64(seq.BatchSize*seq.SeqLen)*8 {
		t.Error("sequence input bytes wrong")
	}
}

func TestTotalFLOPsPositive(t *testing.T) {
	for _, name := range Names() {
		m, _ := ByName(name)
		var flops float64
		for _, l := range m.Layers {
			flops += l.FLOPsFwd + l.FLOPsBwd
		}
		if flops <= 0 {
			t.Errorf("%s: non-positive FLOPs", name)
		}
	}
}

func TestModelLayerLookup(t *testing.T) {
	m, _ := ByName("resnet50")
	if m.Layer("conv1") == nil {
		t.Error("conv1 not found")
	}
	if m.Layer("no_such_layer") != nil {
		t.Error("phantom layer found")
	}
}

func TestShareProperty(t *testing.T) {
	f := func(total float64, num, den uint8) bool {
		if den == 0 {
			return share(total, float64(num), 0) == 0
		}
		got := share(total, float64(num), float64(den))
		want := total * float64(num) / float64(den)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResNetLayerCensus(t *testing.T) {
	m, _ := ByName("resnet50")
	convs := len(layersOfKind(m, Conv))
	bns := len(layersOfKind(m, BatchNorm))
	if convs != 53 { // 1 stem + 16 blocks × 3 + 4 downsamples
		t.Errorf("ResNet-50 convs = %d, want 53", convs)
	}
	if bns != 53 {
		t.Errorf("ResNet-50 batchnorms = %d, want 53", bns)
	}
}

func TestDenseNetLayerCensus(t *testing.T) {
	m, _ := ByName("densenet121")
	convs := len(layersOfKind(m, Conv))
	// 1 stem + 58 dense layers × 2 + 3 transitions = 120.
	if convs != 120 {
		t.Errorf("DenseNet-121 convs = %d, want 120", convs)
	}
	if bn := len(layersOfKind(m, BatchNorm)); bn != 121 {
		t.Errorf("DenseNet-121 batchnorms = %d, want 121", bn)
	}
}

func TestOptimizerAssignments(t *testing.T) {
	for name, want := range map[string]OptimizerKind{
		"resnet50": SGD, "vgg19": SGD, "densenet121": SGD,
		"gnmt": Adam, "bert-base": Adam, "bert-large": Adam,
		"transformer": Adam,
	} {
		m, _ := ByName(name)
		if m.Optimizer != want {
			t.Errorf("%s optimizer = %v, want %v", name, m.Optimizer, want)
		}
	}
}
