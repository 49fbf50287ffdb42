package dnn

// Footprint is an analytic estimate of training-time device-memory use,
// answering the paper's introductory question "Does GPU memory capacity
// limit the performance of my model?" and sizing the headroom that
// memory-footprint optimizations (vDNN, Gist) would free.
type Footprint struct {
	// Params is the model weights (fp32).
	Params int64
	// Gradients is one fp32 gradient per parameter.
	Gradients int64
	// OptimizerState is the optimizer's per-parameter state (momentum
	// for SGD; first+second moments for Adam).
	OptimizerState int64
	// Activations is the sum of forward activations stashed for the
	// backward pass.
	Activations int64
	// Workspace approximates cuDNN algorithm workspaces and allocator
	// slack.
	Workspace int64
}

// Total sums all components.
func (f Footprint) Total() int64 {
	return f.Params + f.Gradients + f.OptimizerState + f.Activations + f.Workspace
}

// workspaceFraction approximates cuDNN workspace + caching-allocator
// slack as a fraction of activation memory.
const workspaceFraction = 0.15

// EstimateMemory computes the training footprint of a model with its
// native optimizer.
func EstimateMemory(m *Model) Footprint {
	params := m.ParamCount() * 4
	var acts int64
	for _, l := range m.Layers {
		acts += l.ActBytes
	}
	state := params // SGD: momentum buffer
	if m.Optimizer == Adam {
		state = 2 * params // exp. average + exp. square average
	}
	return Footprint{
		Params:         params,
		Gradients:      params,
		OptimizerState: state,
		Activations:    acts,
		Workspace:      int64(float64(acts) * workspaceFraction),
	}
}

// MaxBatchSize finds, by doubling then binary search, the largest batch
// size whose estimated footprint fits in memBytes. build constructs the
// model at a candidate batch size; the search covers [1, 65536].
func MaxBatchSize(build func(batch int) *Model, memBytes int64) int {
	fits := func(b int) bool {
		return EstimateMemory(build(b)).Total() <= memBytes
	}
	if !fits(1) {
		return 0
	}
	lo, hi := 1, 2
	for hi <= 65536 && fits(hi) {
		lo, hi = hi, hi*2
	}
	// Invariant: fits(lo), !fits(hi) (or hi beyond the cap).
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
