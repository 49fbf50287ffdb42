package dnn

import (
	"fmt"
	"sort"
)

// OptimizerKind selects the weight-update rule a model trains with.
type OptimizerKind int

// Optimizers.
const (
	// SGD is stochastic gradient descent with momentum.
	SGD OptimizerKind = iota
	// Adam is the (unfused) Adam optimizer: roughly a dozen small
	// elementwise GPU kernels per parameter tensor per step, which is
	// what makes FusedAdam such a large win on BERT (paper §6.3).
	Adam
)

// String returns "sgd" or "adam".
func (o OptimizerKind) String() string {
	if o == Adam {
		return "adam"
	}
	return "sgd"
}

// Model is one member of the zoo: an ordered layer list plus training
// defaults matching the paper's Table 2 setups.
type Model struct {
	// Name is the model name as the paper spells it.
	Name string
	// Dataset names the paper's dataset for this model.
	Dataset string
	// Layers is the topologically ordered operator list.
	Layers []*Layer
	// BatchSize is the per-GPU batch size the cost metadata was built
	// for.
	BatchSize int
	// SeqLen is the sequence length for sequence models, 0 otherwise.
	SeqLen int
	// Optimizer is the optimizer the paper trains this model with.
	Optimizer OptimizerKind
}

// ParamCount returns the number of learnable parameters.
func (m *Model) ParamCount() int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.Params()
	}
	return n
}

// ParamTensorCount returns the number of learnable parameter tensors,
// which is what determines unfused-Adam kernel counts.
func (m *Model) ParamTensorCount() int {
	n := 0
	for _, l := range m.Layers {
		n += len(l.Tensors)
	}
	return n
}

// Layer returns the layer with the given name, or nil.
func (m *Model) Layer(name string) *Layer {
	for _, l := range m.Layers {
		if l.Name == name {
			return l
		}
	}
	return nil
}

// InputBytes returns the size of one mini-batch of input data, used to
// size the host-to-device copy and the data-loading task.
func (m *Model) InputBytes() int64 {
	if len(m.Layers) == 0 {
		return 0
	}
	// The first parameterized layer's forward traffic is dominated by
	// the input for vision models; for sequence models the token IDs
	// are small.
	if m.SeqLen > 0 {
		return int64(m.BatchSize*m.SeqLen) * 8
	}
	// Vision: 3×224×224 fp32.
	return int64(m.BatchSize) * 3 * 224 * 224 * 4
}

// builder accumulates layers with automatic index assignment.
type builder struct {
	model *Model
}

func newBuilder(name, dataset string, batch int, opt OptimizerKind) *builder {
	return &builder{model: &Model{
		Name:      name,
		Dataset:   dataset,
		BatchSize: batch,
		Optimizer: opt,
	}}
}

func (b *builder) add(l *Layer) *Layer {
	l.Index = len(b.model.Layers)
	b.model.Layers = append(b.model.Layers, l)
	return l
}

func (b *builder) done() *Model { return b.model }

// zoo registers the paper's models (plus the Transformer extension) by
// canonical name.
var zoo = map[string]func() *Model{
	"resnet50":    func() *Model { return ResNet50(64) },
	"vgg19":       func() *Model { return VGG19(32) },
	"densenet121": func() *Model { return DenseNet121(32) },
	"gnmt":        func() *Model { return GNMT(32, 25) },
	"bert-base":   func() *Model { return BERTBase(4, 384) },
	"bert-large":  func() *Model { return BERTLarge(2, 384) },
	"transformer": func() *Model { return Transformer(64, 32) },
}

// ByName builds the named model at the paper's default batch size.
// Known names: resnet50, vgg19, densenet121, gnmt, bert-base, bert-large,
// transformer.
func ByName(name string) (*Model, error) {
	f, ok := zoo[name]
	if !ok {
		return nil, fmt.Errorf("dnn: unknown model %q (known: %v)", name, Names())
	}
	return f(), nil
}

// zooAt registers the batch-parameterized constructors behind the zoo,
// with sequence lengths fixed at the paper's defaults.
var zooAt = map[string]func(batch int) *Model{
	"resnet50":    ResNet50,
	"vgg19":       VGG19,
	"densenet121": DenseNet121,
	"gnmt":        func(b int) *Model { return GNMT(b, 25) },
	"bert-base":   func(b int) *Model { return BERTBase(b, 384) },
	"bert-large":  func(b int) *Model { return BERTLarge(b, 384) },
	"transformer": func(b int) *Model { return Transformer(b, 32) },
}

// ByNameAtBatch builds the named zoo model at an explicit batch size
// (sequence lengths stay at the zoo defaults), for batch sweeps and
// capacity fits.
func ByNameAtBatch(name string, batch int) (*Model, error) {
	f, ok := zooAt[name]
	if !ok {
		return nil, fmt.Errorf("dnn: unknown model %q (known: %v)", name, Names())
	}
	if batch < 1 {
		return nil, fmt.Errorf("dnn: batch size must be positive, got %d", batch)
	}
	return f(batch), nil
}

// Names returns the sorted list of zoo model names.
func Names() []string {
	names := make([]string, 0, len(zoo))
	for n := range zoo {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
