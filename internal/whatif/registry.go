package whatif

import (
	"fmt"
	"strings"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/xpu"
)

// OptParams supplies the workload-specific inputs registry constructors
// need. A given optimization reads only the fields it documents; the
// rest may stay zero.
type OptParams struct {
	// Topology is the target cluster (distributed, p3).
	Topology comm.Topology
	// SliceBytes is the P3 gradient slice size: 0 selects P3's default
	// (800 KB), negative disables slicing and priorities — the plain
	// FIFO parameter server.
	SliceBytes int64
	// FromDevice and ToDevice are device names — short presets or full
	// marketing names — for the upgrade what-if. FromDevice must match
	// the device the trace was collected on.
	FromDevice, ToDevice string
	// Profile carries externally measured kernel durations (kprofile).
	Profile KernelProfile
	// ScaleTarget and ScaleFactor drive the generic scale what-if:
	// kernels whose name contains ScaleTarget run at ScaleFactor× their
	// profiled duration.
	ScaleTarget string
	// ScaleFactor must be positive.
	ScaleFactor float64
	// ReconBatchnorm overrides Algorithm 5's layer classification;
	// zero-value defaults match the model zoo's naming.
	ReconBatchnorm ReconBatchnormOptions
	// Rounds is the P3 steady-state iteration count (minimum 2).
	Rounds int
	// Pipeline configures the pipeline-parallel what-if; zero values
	// select its defaults (2 stages × 4 microbatches, 1F1B). Stack
	// expressions override it inline: "pipeline:4x8:gpipe".
	Pipeline PipelineOptions
}

// OptSpec describes one registered optimization model: a stable name,
// help text, the evaluation footprint, and a constructor. The CLIs
// generate their -opt help and accepted names from the registry, so
// they cannot drift from the library.
type OptSpec struct {
	// Name is the registry key, usable in stack expressions.
	Name string
	// Summary is a one-line description for generated help.
	Summary string
	// Params documents the OptParams fields the constructor reads, for
	// generated help; empty when none.
	Params string
	// Footprint is the optimization's evaluation footprint.
	Footprint core.OptFootprint
	// Cluster marks optimizations that need a multi-worker topology and
	// belong in a topology grid rather than a single-GPU battery.
	Cluster bool
	// ConeFriendly marks optimizations whose deltas stay on the
	// incremental fast path: timing-only edits (durations and gaps, no
	// priorities) with no carried scheduling policy. Sweeps over these
	// specs re-simulate only the affected cone of a warm baseline
	// schedule; the rest take the overlay or patch tier.
	ConeFriendly bool
	// Build constructs the optimization from the parameters, validating
	// the fields it needs.
	Build func(OptParams) (core.Optimization, error)
	// ParseArg, when set, folds a stack-expression parameter into the
	// build parameters: "pipeline:4x8" resolves the spec named
	// "pipeline" and hands it "4x8". Specs without ParseArg reject
	// parameterized elements.
	ParseArg func(arg string, p OptParams) (OptParams, error)
}

// p3DefaultSlice is P3's default gradient slice size (the P3 paper's
// 800 KB).
const p3DefaultSlice = 800 << 10

// P3SliceBytes maps the public slice-size convention onto P3Options'
// field: zero selects P3's default slice, negative disables slicing
// and priorities (whole tensors in FIFO order — the plain parameter
// server), positive passes through. Shared by the registry and the
// daydream-level OptP3 so the convention cannot drift.
func P3SliceBytes(slice int64) int64 {
	switch {
	case slice == 0:
		return p3DefaultSlice
	case slice < 0:
		return 0
	}
	return slice
}

// registry lists every optimization model, in presentation order.
var registry = []OptSpec{
	{
		Name:         "amp",
		Summary:      "automatic mixed precision (Algorithm 3)",
		Footprint:    core.TimingOnly,
		ConeFriendly: true,
		Build:        func(OptParams) (core.Optimization, error) { return OptAMP(), nil },
	},
	{
		Name:         "fusedadam",
		Summary:      "Apex fused Adam optimizer (Algorithm 4)",
		Footprint:    core.TimingOnly,
		ConeFriendly: true,
		Build:        func(OptParams) (core.Optimization, error) { return OptFusedAdam(), nil },
	},
	{
		Name:         "reconbn",
		Summary:      "batchnorm restructuring (Algorithm 5)",
		Footprint:    core.TimingOnly,
		ConeFriendly: true,
		Build: func(p OptParams) (core.Optimization, error) {
			return OptReconBatchnorm(p.ReconBatchnorm), nil
		},
	},
	{
		Name:      "reconbn-removal",
		Summary:   "batchnorm restructuring, removal form (Algorithm 5; true graph shape, patch deltas)",
		Footprint: core.Structural,
		Build: func(p OptParams) (core.Optimization, error) {
			return OptReconBatchnormRemoval(p.ReconBatchnorm), nil
		},
	},
	{
		Name:      "vdnn",
		Summary:   "vDNN activation offload/prefetch with its copy-stream scheduling policy (§5.2, Algorithm 10)",
		Footprint: core.Structural,
		Build: func(OptParams) (core.Optimization, error) {
			return OptVDNN(VDNNOptions{}), nil
		},
	},
	{
		Name:      "gist",
		Summary:   "Gist activation compression: encode/decode kernels around targeted activations (§5.2, Algorithm 11)",
		Footprint: core.Structural,
		Build: func(OptParams) (core.Optimization, error) {
			return OptGist(GistOptions{}), nil
		},
	},
	{
		Name:      "distributed",
		Summary:   "data-parallel scaling from a single-GPU profile (Algorithm 6)",
		Params:    "topology",
		Footprint: core.Structural,
		Cluster:   true,
		Build: func(p OptParams) (core.Optimization, error) {
			if p.Topology.TotalGPUs() < 1 {
				return nil, fmt.Errorf("whatif: distributed needs a topology (machines × GPUs)")
			}
			return OptDistributed(DistributedOptions{Topology: p.Topology}), nil
		},
	},
	{
		Name:      "p3",
		Summary:   "parameter server with priority-based parameter propagation (Algorithm 7)",
		Params:    "topology, slice bytes (0 = 800KB default, <0 = plain FIFO)",
		Footprint: core.Structural,
		Cluster:   true,
		Build: func(p OptParams) (core.Optimization, error) {
			if p.Topology.TotalGPUs() <= 1 {
				return nil, fmt.Errorf("whatif: p3 needs a multi-worker topology")
			}
			return OptP3(P3Options{
				Topology:   p.Topology,
				SliceBytes: P3SliceBytes(p.SliceBytes),
				Rounds:     p.Rounds,
			}), nil
		},
	},
	{
		Name:      "pipeline",
		Summary:   "pipeline parallelism: layer stages on distinct accelerators, microbatched 1F1B or GPipe schedule",
		Params:    "stages x microbatches and schedule, inline as pipeline:SxM[:1f1b|gpipe]",
		Footprint: core.Structural,
		Build: func(p OptParams) (core.Optimization, error) {
			return OptPipeline(p.Pipeline), nil
		},
		ParseArg: func(arg string, p OptParams) (OptParams, error) {
			opts, err := ParsePipelineArg(arg)
			if err != nil {
				return p, err
			}
			p.Pipeline = opts
			return p, nil
		},
	},
	{
		Name:         "upgrade",
		Summary:      "move the workload to a different accelerator",
		Params:       "from/to device names",
		Footprint:    core.TimingOnly,
		ConeFriendly: true,
		Build: func(p OptParams) (core.Optimization, error) {
			from, err := xpu.FindDevice(p.FromDevice)
			if err != nil {
				return nil, err
			}
			to, err := xpu.FindDevice(p.ToDevice)
			if err != nil {
				return nil, err
			}
			return OptDeviceUpgrade(from, to), nil
		},
	},
	{
		Name:         "kprofile",
		Summary:      "apply externally profiled kernel durations (§7.4)",
		Params:       "kernel profile",
		Footprint:    core.TimingOnly,
		ConeFriendly: true,
		Build: func(p OptParams) (core.Optimization, error) {
			if len(p.Profile) == 0 {
				return nil, fmt.Errorf("whatif: kprofile needs a non-empty kernel profile")
			}
			return OptKernelProfile(p.Profile), nil
		},
	},
	{
		Name:         "scale",
		Summary:      "run matching kernels at a given duration factor (COZ-style)",
		Params:       "name substring, factor",
		Footprint:    core.TimingOnly,
		ConeFriendly: true,
		Build: func(p OptParams) (core.Optimization, error) {
			if p.ScaleTarget == "" || p.ScaleFactor <= 0 {
				return nil, fmt.Errorf("whatif: scale needs a kernel-name substring and a positive factor")
			}
			return OptScale(p.ScaleTarget, p.ScaleFactor), nil
		},
	},
}

// Registry returns every registered optimization model, in presentation
// order. The returned slice is a copy; mutating it does not affect the
// registry.
func Registry() []OptSpec {
	return append([]OptSpec(nil), registry...)
}

// SpecByName returns the registered spec for name.
func SpecByName(name string) (OptSpec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return OptSpec{}, false
}

// registeredNames lists every registry key, for error messages.
func registeredNames() string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

// BuildByName constructs a registered optimization by name.
func BuildByName(name string, p OptParams) (core.Optimization, error) {
	s, ok := SpecByName(name)
	if !ok {
		return nil, fmt.Errorf("whatif: unknown optimization %q (known: %s)", name, registeredNames())
	}
	return s.Build(p)
}

// ParseStack resolves a '+'-separated stack expression ("amp+fusedadam")
// against the registry: each element is built with the same parameters,
// and multiple elements compose with core.Stack in expression order. A
// single element returns the optimization itself. A name may appear at
// most once — "amp+amp" would silently apply the model twice (squaring
// its scaling), so duplicates are rejected with an error instead.
func ParseStack(expr string, p OptParams) (core.Optimization, error) {
	parts := strings.Split(expr, "+")
	opts := make([]core.Optimization, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for _, part := range parts {
		elem := strings.TrimSpace(part)
		if elem == "" {
			return nil, fmt.Errorf("whatif: empty element in optimization expression %q", expr)
		}
		// An element may carry an inline parameter after the first ':'
		// ("pipeline:4x8:gpipe" → spec "pipeline", argument "4x8:gpipe").
		name, arg, _ := strings.Cut(elem, ":")
		name = strings.TrimSpace(name)
		if seen[name] {
			return nil, fmt.Errorf("whatif: duplicate optimization %q in expression %q (each model may appear once; applying it twice would double its effect)", name, expr)
		}
		seen[name] = true
		s, ok := SpecByName(name)
		if !ok {
			// Name the offending element and every accepted name: the
			// caller may be a remote API client that cannot open the
			// registry docs, so the rejection is the documentation.
			return nil, fmt.Errorf("whatif: unknown optimization %q in expression %q (known: %s)", name, expr, registeredNames())
		}
		bp := p
		if arg != "" {
			if s.ParseArg == nil {
				return nil, fmt.Errorf("whatif: optimization %q takes no inline parameter (got %q in expression %q)", name, arg, expr)
			}
			var err error
			if bp, err = s.ParseArg(arg, bp); err != nil {
				return nil, err
			}
		}
		opt, err := s.Build(bp)
		if err != nil {
			return nil, err
		}
		opts = append(opts, opt)
	}
	if len(opts) == 0 {
		return nil, fmt.Errorf("whatif: empty optimization expression")
	}
	if len(opts) == 1 {
		return opts[0], nil
	}
	return core.Stack(opts...), nil
}
