// Package mem is the memory-timeline simulation layer: it tracks
// per-device allocated bytes over *simulated* time, turning the
// engine's time-only predictions into memory/throughput trade-off
// answers (the paper's fig10/vDNN story, generalized).
//
// # Model
//
// An Annotation is a per-graph tensor schedule derived from the
// workload metadata the trace already carries (Meta.Gradients holds
// per-layer activation and gradient sizes from the dnn layer sizing):
//
//   - Each layer's output activation is one Tensor per (layer, round).
//     It allocates at the simulated start of its producer — the layer's
//     last forward-phase GPU task — and frees after its last consumer
//     — the layer's backward-phase GPU tasks — finishes in simulated
//     time. A tensor with no live consumers frees at its producer's
//     finish.
//   - Parameters and gradients are Resident: a constant baseline
//     occupying the device for the whole iteration. (Optimizer state
//     is not recorded in trace metadata and is excluded; the static
//     dnn.EstimateMemory footprint therefore upper-bounds the
//     simulated peak.)
//
// Tensors reference tasks by ID, never by pointer, so one annotation —
// memoized on the baseline through the core.Graph MemAnnotation hook —
// serves every view sharing the baseline's ID space: the graph itself,
// a Patch, and any materialized clone.
//
// # Profiles
//
// ComputeProfile is a pure post-pass over a finished SimResult: it
// reads task starts and effective durations through the result (never
// Task fields), sweeps the alloc/free events in deterministic order
// (frees before allocs at equal instants), and emits a Profile — a
// per-device timeline of allocated bytes, the peak, the interval over
// which the peak holds, and attribution of the peak to the tensors
// (layers) live at that instant. Because it only reads, every
// simulation tier gets profiling clone-free: cold replay, overlay,
// patch, custom-scheduled, and incremental re-simulation all produce
// bit-identical SimResults before and after profiling, and the profile
// itself is bit-identical whether computed over a Patch view or over
// the materialized clone.
//
// # Optimizations
//
// Optimizations whose surgery changes activation residency implement
// MemMeasurer: RewriteTensors maps the baseline tensor schedule onto
// the optimized graph (vDNN splits a tensor's residency around its
// offload/prefetch copies; Gist inserts a compressed copy between
// encode and decode). MeasurersOf collects the implementations from an
// optimization or core.Stack, and ProfileOpt runs the full pipeline —
// apply, simulate under the opt's carried scheduler, rewrite, profile
// — reporting predicted peak memory alongside makespan.
//
// MaxBatchFit turns capacity into a first-class constraint: largest
// batch size whose simulated peak fits a byte budget under an
// optimization stack, found by doubling+bisection with every candidate
// evaluated through the sweep tier.
package mem
