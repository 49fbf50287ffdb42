package daydream

import (
	"context"
	"fmt"
	"io"
	"time"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/mem"
	"daydream/internal/serve"
	"daydream/internal/sweep"
	"daydream/internal/trace"
	"daydream/internal/whatif"
	"daydream/internal/xpu"
)

// Re-exported core types. Downstream code uses these aliases; the internal
// packages stay private.
type (
	// Trace is a profiled training iteration (CUPTI-shaped records plus
	// layer spans and gradient metadata).
	Trace = trace.Trace
	// Activity is one trace record.
	Activity = trace.Activity
	// Graph is the kernel-granularity dependency graph.
	Graph = core.Graph
	// Task is one node of the dependency graph.
	Task = core.Task
	// ThreadID identifies an execution thread (CPU thread, GPU stream
	// or communication channel).
	ThreadID = core.ThreadID
	// SimResult is a simulation outcome (per-task start times and
	// makespan).
	SimResult = core.SimResult
	// Scheduler overrides Algorithm 1's task-picking policy. Pick
	// returns the index of the frontier task to dispatch and reads the
	// effective per-task state (timings, priorities, earliest starts)
	// through the SchedContext, so one policy runs clone-free over a
	// Graph or a Patch alike.
	Scheduler = core.Scheduler
	// SchedContext is the read surface a Scheduler picks through.
	SchedContext = core.SchedContext
	// EarliestStart is the default scheduling policy.
	EarliestStart = core.EarliestStart
	// SimOption configures a simulation (WithScheduler, …).
	SimOption = core.SimOption
	// Topology describes a data-parallel cluster.
	Topology = comm.Topology
	// Model is a DNN workload description.
	Model = dnn.Model
	// Device is an accelerator model.
	Device = xpu.Device
	// Breakdown is the CPU/GPU runtime decomposition of a trace.
	Breakdown = trace.Breakdown
	// Scenario is one what-if question in a concurrent sweep.
	Scenario = sweep.Scenario
	// SweepResult is one scenario's outcome.
	SweepResult = sweep.Result
	// SweepOption configures Sweep (worker count, result retention).
	SweepOption = sweep.Option
	// SimScratch is the reusable per-simulation working set.
	SimScratch = core.SimScratch
	// Patch is a copy-on-write view of a shared baseline graph that
	// layers timing deltas (durations, gaps, priorities) and structural
	// deltas (task and edge additions/removals) — the unified application
	// surface every Optimization applies through, making structural
	// what-ifs (Distributed, P3's annotation, removal-form batchnorm
	// restructuring) clone-free too.
	Patch = core.Patch
	// TaskView is the read-only task set a Measure reads from: a
	// *Graph, or a *Patch viewing one through deltas.
	TaskView = core.TaskView
	// IncrementalSim is a warm simulation state over one baseline
	// graph: ReSimulate recomputes only the affected cone of a
	// timing-only delta, bit-identical to a cold Simulate.
	IncrementalSim = core.IncrementalSim
	// LayerPhaseIndex is the memoized per-graph layer/phase index.
	LayerPhaseIndex = core.LayerPhaseIndex
	// Optimization is a first-class what-if value: a self-describing
	// graph transformation carrying its name and footprint, applied
	// through the unified Apply(*Patch) surface. The same value drives
	// Compare, sweep Scenarios and the CLIs, and Stack composes
	// several into one composed what-if.
	Optimization = core.Optimization
	// OptFootprint classifies how much of the graph an Optimization
	// touches — a fast-path hint and display label: TimingOnly values
	// write only the Patch's timing deltas, Structural ones
	// record structural deltas too. Neither clones.
	OptFootprint = core.OptFootprint
	// OptimizationSpec describes one entry of the optimization
	// registry (see Optimizations).
	OptimizationSpec = whatif.OptSpec
	// OptimizationParams supplies the workload-specific inputs registry
	// constructors need (topology, device names, kernel profiles, …).
	OptimizationParams = whatif.OptParams
)

// Optimization footprints.
const (
	// TimingOnly marks optimizations that only rewrite task timings.
	TimingOnly = core.TimingOnly
	// Structural marks optimizations that change graph structure.
	Structural = core.Structural
)

// Sweep answers many what-if questions from one shared baseline graph
// concurrently on a worker pool, with results in scenario order —
// bit-identical to the equivalent sequential loop. Scenarios declare
// their what-if as an Optimization value; every value applies through a
// worker-owned copy-on-write Patch over the shared baseline, so
// timing-only AND structural optimizations (and Stacks of them)
// evaluate clone-free — including under a custom Scheduler, supplied in
// SimOptions or carried by the value itself (OptVDNN). A value that
// models several iterations (OptP3) patches a per-scenario Repeat of
// the baseline. Scenarios may carry their own Base graph for model ×
// config grids.
//
//	results, err := daydream.Sweep(g, []daydream.Scenario{
//	    {Opt: daydream.OptAMP()},
//	    {Opt: daydream.Stack(daydream.OptAMP(), daydream.OptFusedAdam())},
//	    {Opt: daydream.OptDistributed(daydream.NewTopology(4, 2, 10))},
//	})
func Sweep(baseline *Graph, scenarios []Scenario, opts ...SweepOption) ([]SweepResult, error) {
	return sweep.Run(baseline, scenarios, opts...)
}

// WithScheduler overrides the default earliest-start scheduling policy
// for one simulation — a Scenario's SimOptions or a direct
// Graph/Patch Simulate call. Custom schedulers are
// view-generic: the same policy runs clone-free over a structural
// Patch, bit-identical to scheduling the materialized graph.
func WithScheduler(s Scheduler) SimOption { return core.WithScheduler(s) }

// NewPatch returns an empty copy-on-write patch over the baseline
// graph: the unified what-if application surface. Timing edits
// (SetDuration/SetGap/SetPriority) are kept sparse or dense per task;
// structural edits (NewTask/AppendTask/
// InsertAfter/AddDependency/RemoveDependency/RemoveTask) are recorded
// as deltas. Patch.Simulate runs Algorithm 1 over the composite view,
// bit-identical to cloning the baseline and mutating the clone — and
// any number of patches may share one baseline concurrently as long as
// nothing mutates it.
func NewPatch(g *Graph) *Patch { return core.NewPatch(g) }

// NewIncrementalSim cold-simulates the baseline once and caches the
// warm schedule. Subsequent ReSimulate calls over timing-only patches
// of the same baseline recompute only the tasks
// whose times can actually change (the delta's affected cone),
// bit-identical to a cold Simulate; deltas the propagation cannot
// prove safe (priority edits, structural ops, custom schedulers) fall
// back to a cold simulation transparently. Sweep uses this
// automatically for timing-only scenario batteries over one baseline.
func NewIncrementalSim(g *Graph) (*IncrementalSim, error) { return core.NewIncrementalSim(g) }

// Fault-tolerance surface. Every failure the engine produces for
// hostile or malformed input wraps a typed sentinel, so services
// classify with errors.Is instead of string matching. Cancellation
// errors additionally match context.Canceled/context.DeadlineExceeded.
var (
	// ErrCanceled marks a simulation or sweep scenario abandoned
	// because its context was canceled.
	ErrCanceled = core.ErrCanceled
	// ErrDeadlineExceeded marks a simulation or sweep scenario
	// abandoned because its context's deadline passed.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	// ErrCycle marks a dependency graph or patch view whose edges
	// contain a cycle (Validate reports it before simulation).
	ErrCycle = core.ErrCycle
	// ErrDanglingEdge marks a patch edge or sequence override whose
	// endpoint is not live in the effective view.
	ErrDanglingEdge = core.ErrDanglingEdge
	// ErrNegativeDuration marks a task whose effective duration (or
	// duration+gap) is negative.
	ErrNegativeDuration = core.ErrNegativeDuration
	// ErrStalled marks a simulation whose ready frontier emptied with
	// live tasks still blocked — the runtime symptom of a cycle; the
	// error names the blocked tasks and never yields a partial
	// schedule.
	ErrStalled = core.ErrStalled
	// ErrSweepPanic marks a sweep scenario whose user callback
	// panicked; the row's error is a *SweepPanicError carrying the
	// panic value and stack, and the worker's buffers were quarantined.
	ErrSweepPanic = sweep.ErrPanic
	// ErrNotRoundMajor marks a round-windowed simulation over a view
	// whose task IDs are not non-decreasing in Task.Round — the layout
	// WithRoundWindow's sliding storage requires. Repeated graphs and
	// round-major patch appendices (OptPipeline's) satisfy it by
	// construction.
	ErrNotRoundMajor = core.ErrNotRoundMajor
	// ErrWindowedResult marks an operation that needs the full start
	// array of an unwindowed result — ComputeMemoryProfile, incremental
	// warm builds — applied to a round-windowed one; re-simulate without
	// WithRoundWindow.
	ErrWindowedResult = core.ErrWindowedResult
)

type (
	// StallError details a frontier starvation: executed/live counts
	// and the blocked task IDs. It unwraps to ErrStalled.
	StallError = core.StallError
	// CycleError details a validation-detected dependency cycle. It
	// unwraps to ErrCycle.
	CycleError = core.CycleError
	// SweepPanicError is a recovered scenario panic (value + stack).
	// It unwraps to ErrSweepPanic.
	SweepPanicError = sweep.PanicError
)

// RoundSummary is the retained record of a round retired by a
// round-windowed simulation: its completion time, its makespan
// contribution (Span, which converges to the steady-state iteration or
// microbatch time), and its per-thread ends.
type RoundSummary = core.RoundSummary

// WithRoundWindow enables round-windowed simulation on a round-major
// view (a repeated graph, or a pipeline patch whose microbatches ride
// Task.Round): rounds more than w rounds behind the completion frontier
// retire into RoundSummary records and their per-task starts are
// evicted, so simulating thousands of rounds costs O(window) result
// memory instead of O(rounds). The retained window reads bit-identically
// to an unwindowed run through SimResult.StartOf/Finish; full-array
// consumers reject windowed results with ErrWindowedResult.
func WithRoundWindow(w int) SimOption { return core.WithRoundWindow(w) }

// WithContext bounds one simulation by ctx: the simulator checks it on
// entry and every few thousand scheduling steps, returning a typed
// ErrCanceled/ErrDeadlineExceeded (also matching the context package's
// sentinels) instead of completing. A nil context costs nothing.
func WithContext(ctx context.Context) SimOption { return core.WithContext(ctx) }

// SweepWorkers caps the sweep worker pool; values below 1 select
// GOMAXPROCS.
func SweepWorkers(n int) SweepOption { return sweep.Workers(n) }

// SweepContext bounds a whole sweep by ctx: in-flight scenarios abort
// at their next periodic check and everything not yet evaluated comes
// back as a typed cancellation row — the result slice keeps one row
// per scenario, and no goroutine outlives the Sweep call.
func SweepContext(ctx context.Context) SweepOption { return sweep.WithContext(ctx) }

// SweepFailFast stops a sweep at its first scenario error: the trigger
// keeps its own error row, the remaining scenarios become ErrCanceled
// rows. The default policy runs every scenario and collects all errors.
func SweepFailFast() SweepOption { return sweep.FailFast() }

// SweepKeepGraphs retains each scenario's transformed graph.
func SweepKeepGraphs() SweepOption { return sweep.KeepGraphs() }

// SweepKeepSims retains each scenario's simulation result.
func SweepKeepSims() SweepOption { return sweep.KeepSims() }

// SweepPool keeps warm sweep workers (scratch, patch, incremental
// state) alive between Run calls, so a recurring baseline's timing-only
// scenarios ride the incremental tier from the first row of every call
// instead of paying a cold warm-up per call. Safe for concurrent use;
// the serve subsystem answers every request through one.
type SweepPool = sweep.Pool

// NewSweepPool builds a pool keeping at most maxIdle warm workers
// (values below 1 select GOMAXPROCS).
func NewSweepPool(maxIdle int) *SweepPool { return sweep.NewPool(maxIdle) }

// Server is the long-lived prediction service: an HTTP JSON API over
// the trace→graph→simulate pipeline with a concurrent baseline
// registry, result caching, single-flight coalescing, admission
// control and graceful drain. See internal/serve's package
// documentation for the endpoint list and concurrency contract.
type Server = serve.Server

// ServeConfig tunes a Server; the zero value gets production defaults.
type ServeConfig = serve.Config

// NewServer builds a prediction server. Mount its Handler on an
// http.Server and stop it with Shutdown.
func NewServer(cfg ServeConfig) *Server { return serve.NewServer(cfg) }

// CollectConfig configures trace collection on the synthetic substrate.
type CollectConfig struct {
	// Model is a zoo name: resnet50, vgg19, densenet121, gnmt,
	// bert-base, bert-large. Exactly one of Model and CustomModel must
	// be set.
	Model string
	// CustomModel profiles a caller-built model instead of a zoo one.
	CustomModel *Model
	// Device is a preset name — 2080ti (default), p4000, v100 — or a
	// full marketing name (DeviceNames lists both forms).
	Device string
	// Framework is the dialect: pytorch (default), mxnet, caffe.
	Framework string
	// MixedPrecision collects the trace under AMP instead of fp32.
	MixedPrecision bool
	// Seed perturbs the deterministic run-to-run jitter.
	Seed uint64
}

// Collect profiles one training iteration and returns its trace — phase 1
// of Daydream's workflow, standing in for CUPTI plus framework
// instrumentation.
func Collect(cfg CollectConfig) (*Trace, error) {
	fcfg, err := frameworkConfig(cfg)
	if err != nil {
		return nil, err
	}
	fcfg.CollectTrace = true
	res, err := framework.Run(*fcfg)
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

func frameworkConfig(cfg CollectConfig) (*framework.Config, error) {
	m := cfg.CustomModel
	if m == nil {
		if cfg.Model == "" {
			return nil, fmt.Errorf("daydream: CollectConfig needs Model or CustomModel")
		}
		var err error
		m, err = dnn.ByName(cfg.Model)
		if err != nil {
			return nil, err
		}
	}
	fcfg := framework.Config{Model: m, Seed: cfg.Seed}
	if cfg.Device != "" {
		dev, err := xpu.FindDevice(cfg.Device)
		if err != nil {
			return nil, err
		}
		fcfg.Device = dev
	}
	switch cfg.Framework {
	case "", "pytorch":
	case "mxnet":
		fcfg.Dialect = framework.MXNet
	case "caffe":
		fcfg.Dialect = framework.Caffe
	default:
		return nil, fmt.Errorf("daydream: unknown framework %q (known: pytorch, mxnet, caffe)", cfg.Framework)
	}
	if cfg.MixedPrecision {
		fcfg.Precision = xpu.FP16
	}
	return &fcfg, nil
}

// BuildGraph constructs the kernel-granularity dependency graph from a
// trace and applies the synchronization-free task-to-layer mapping —
// phase 2 of Daydream's workflow.
func BuildGraph(t *Trace) (*Graph, error) {
	g, err := core.Build(t)
	if err != nil {
		return nil, err
	}
	core.MapLayers(g, t.LayerSpans)
	return g, nil
}

// LoadGraph reads a JSON trace from r and builds its dependency graph —
// phases 1–2 of Daydream's workflow in one call. It is the canonical
// trace-bytes-to-graph path shared by both CLIs and the serve
// subsystem's baseline-upload endpoint, so trace ingestion and its
// typed error taxonomy (ErrMalformed and friends) cannot drift between
// entry points.
func LoadGraph(r io.Reader) (*Trace, *Graph, error) {
	return core.LoadGraph(r)
}

// ModelByName builds a zoo model at its default batch size.
func ModelByName(name string) (*Model, error) { return dnn.ByName(name) }

// ModelByNameAtBatch builds a zoo model at an explicit batch size
// (sequence lengths stay at the zoo defaults), for batch sweeps and
// MaxBatchFit build closures.
func ModelByNameAtBatch(name string, batch int) (*Model, error) {
	return dnn.ByNameAtBatch(name, batch)
}

// ModelNames lists the zoo.
func ModelNames() []string { return dnn.Names() }

// Gbps converts gigabits per second to bytes per second, for Topology
// bandwidth fields.
func Gbps(g float64) float64 { return comm.Gbps(g) }

// NewTopology builds a cluster description with the defaults used in the
// paper's evaluation (PCIe intra-machine links).
func NewTopology(machines, gpusPerMachine int, gbps float64) Topology {
	return Topology{
		Machines:       machines,
		GPUsPerMachine: gpusPerMachine,
		NICBandwidth:   comm.Gbps(gbps),
		IntraBandwidth: 11e9,
		StepLatency:    15 * time.Microsecond,
	}
}

// ComputeBreakdown decomposes a trace into CPU-only / GPU-only / CPU+GPU
// runtime (the paper's Figure 6 analysis).
func ComputeBreakdown(t *Trace) Breakdown { return trace.ComputeBreakdown(t) }

// Optimization values (paper §5, §7). Every optimization model is
// available as a first-class, self-describing Optimization value: it
// knows its name, whether it only rewrites timings (TimingOnly) or
// changes graph structure (Structural), and applies itself through the
// one clone-free Patch surface — timing edits in the copy-on-write
// timing tier, structural edits as task/edge deltas; a value that
// models several iterations (OptP3) patches a Repeat of the baseline.
// One value drives every consumer:
//
//	opt := daydream.Stack(daydream.OptAMP(), daydream.OptFusedAdam())
//	base, pred, _ := daydream.Compare(g, opt)            // one question
//	results, _ := daydream.Sweep(g, []daydream.Scenario{ // a grid
//	    {Opt: opt},
//	})

// OptAMP returns automatic mixed precision (Algorithm 3) as an
// Optimization value.
func OptAMP() Optimization { return whatif.OptAMP() }

// OptFusedAdam returns Apex's fused Adam optimizer (Algorithm 4) as an
// Optimization value.
func OptFusedAdam() Optimization { return whatif.OptFusedAdam() }

// OptReconBatchnorm returns batchnorm restructuring (Algorithm 5) as an
// Optimization value, with the zoo's default layer classification.
func OptReconBatchnorm() Optimization {
	return whatif.OptReconBatchnorm(whatif.ReconBatchnormOptions{})
}

// OptReconBatchnormRemoval is OptReconBatchnorm's removal form as a
// patch-form structural value: ReLU kernels are removed (with Remove's
// reconnection edges) as copy-on-write deltas instead of zeroed — same
// prediction, true restructured graph shape, still clone-free.
func OptReconBatchnormRemoval() Optimization {
	return whatif.OptReconBatchnormRemoval(whatif.ReconBatchnormOptions{})
}

// OptDistributed returns the data-parallel prediction (Algorithm 6) for
// the target cluster as an Optimization value.
func OptDistributed(topo Topology) Optimization {
	return whatif.OptDistributed(whatif.DistributedOptions{Topology: topo})
}

// OptP3 returns the parameter-server prediction (Algorithm 7) as an
// Optimization value carrying its own metric (the steady-state
// iteration time). Evaluators patch it over a two-iteration Repeat of
// the single-worker profile they are given. sliceBytes == 0 selects
// P3's default slice size; sliceBytes < 0 disables slicing and
// priorities, modeling the plain FIFO parameter server.
func OptP3(topo Topology, sliceBytes int64) Optimization {
	return whatif.OptP3(whatif.P3Options{
		Topology:   topo,
		SliceBytes: whatif.P3SliceBytes(sliceBytes),
	})
}

// OptVDNN returns the vDNN what-if (Rhu et al., paper §5.2 and
// Algorithm 10) as an Optimization value: activation offload and
// delayed-prefetch copies are inserted as clone-free patch deltas, and
// the value carries vDNN's copy-stream scheduling policy — compute
// preempts PCIe copy traffic that could start at the same instant — so
// Compare and Sweep simulate under it automatically. Schedulers are
// view-generic, so even this scheduled structural scenario runs with
// zero per-scenario clones.
func OptVDNN() Optimization { return whatif.OptVDNN(whatif.VDNNOptions{}) }

// OptGist returns the Gist what-if (Jain et al., paper §5.2 and
// Algorithm 11) as an Optimization value: encode/decode kernels splice
// around each targeted activation as clone-free patch deltas, with
// durations estimated from the profile's element-wise kernels. The
// value implements MemoryMeasurer, so memory-aware surfaces report the
// compressed activations' predicted savings alongside the encode/decode
// latency overhead.
func OptGist() Optimization { return whatif.OptGist(whatif.GistOptions{}) }

// PipelineOptions configures OptPipeline: stage count, microbatch
// count, schedule ("1f1b" or "gpipe") and inter-stage link bandwidth.
// Zero values select the defaults (2 stages × 4 microbatches, 1F1B,
// NVLink-class links).
type PipelineOptions = whatif.PipelineOptions

// OptPipeline returns the pipeline-parallel what-if as an Optimization
// value: the model's layers are partitioned into balanced contiguous
// stages on distinct accelerator streams, microbatches stream through
// the stage pipeline with activation/gradient transfers on inter-stage
// links, and the value carries its microbatch-ordering Scheduler (1F1B
// with PipeDream's in-flight cap, or GPipe's fill-then-drain). It
// applies as clone-free structural patch deltas whose microbatch index
// rides Task.Round — a round-major layout — so large-microbatch
// pipelines simulate under WithRoundWindow in O(window) memory. The
// registry form accepts inline parameters: "pipeline:4x8:gpipe".
func OptPipeline(opts PipelineOptions) Optimization { return whatif.OptPipeline(opts) }

// OptDeviceUpgrade returns the device-upgrade what-if as an Optimization
// value: compute-bound kernels scale by the FLOPS ratio, memory-bound
// ones by the bandwidth ratio, copies by the PCIe ratio. from must match
// the device the trace was collected on; names are the device presets
// plus full marketing names.
func OptDeviceUpgrade(from, to string) (Optimization, error) {
	f, err := deviceByAnyName(from)
	if err != nil {
		return nil, err
	}
	t, err := deviceByAnyName(to)
	if err != nil {
		return nil, err
	}
	return whatif.OptDeviceUpgrade(f, t), nil
}

// OptKernelProfile returns the externally-profiled-kernel what-if
// (paper §7.4) as an Optimization value.
func OptKernelProfile(p KernelProfile) Optimization {
	return whatif.OptKernelProfile(p)
}

// OptScale returns the COZ-style "what if matching kernels ran at
// factor× their duration" question as an Optimization value.
func OptScale(sub string, factor float64) Optimization {
	return whatif.OptScale(sub, factor)
}

// Stack composes several optimizations into one Optimization value,
// applied in argument order — the paper's composed what-ifs (AMP +
// FusedAdam as a single question). The stack's footprint is the maximum
// of its parts', so a stack of timing-only optimizations still
// evaluates clone-free; an empty Stack is a named no-op that replays
// the baseline without cloning.
func Stack(opts ...Optimization) Optimization { return core.Stack(opts...) }

// PatchOptimization builds a custom Optimization from its unified patch
// form — the native constructor of the Apply(*Patch) interface. A
// structural what-if records its surgery through the patch primitives
// (NewTask, AppendTask, AddDependency, RemoveTask, …) and evaluates
// clone-free everywhere an Optimization value goes: Compare, Sweep,
// Stack.
func PatchOptimization(name string, fp OptFootprint, apply func(*Patch) error) Optimization {
	return core.PatchOpt(name, fp, apply, nil)
}

// Optimizations returns the registry of every built-in optimization
// model — name, summary, footprint, and a constructor taking
// OptimizationParams. The CLIs generate their -opt help and accepted
// names from it, so they cannot drift from the library.
func Optimizations() []OptimizationSpec { return whatif.Registry() }

// OptimizationByName constructs a registered optimization by its
// registry name (Optimizations lists them), validating the parameter
// fields it needs.
func OptimizationByName(name string, p OptimizationParams) (Optimization, error) {
	return whatif.BuildByName(name, p)
}

// ParseOptimization resolves a '+'-separated stack expression
// ("amp+fusedadam") against the registry, composing multiple elements
// with Stack in expression order.
func ParseOptimization(expr string, p OptimizationParams) (Optimization, error) {
	return whatif.ParseStack(expr, p)
}

// deviceByAnyName resolves short preset names and full marketing names
// from the xpu preset table, so the accepted-name list (and the error
// message listing it) can never drift from the device models.
func deviceByAnyName(name string) (*xpu.Device, error) {
	return xpu.FindDevice(name)
}

// Devices returns a fresh model of every preset accelerator, in preset
// order (DeviceNames lists the accepted names).
func Devices() []*Device { return xpu.Devices() }

// DeviceNames returns every accepted device name: short presets
// followed by full marketing names.
func DeviceNames() []string { return xpu.DeviceNames() }

// KernelProfile carries externally measured kernel durations keyed by
// name substring (paper §7.4: profile a new kernel once, feed the result
// to Daydream instead of porting the kernel into the framework).
type KernelProfile = whatif.KernelProfile

// Footprint is an analytic training-memory estimate.
type Footprint = dnn.Footprint

// EstimateMemory estimates a model's training memory footprint.
func EstimateMemory(m *Model) Footprint { return dnn.EstimateMemory(m) }

// MaxBatchSize finds the largest batch whose estimated footprint fits in
// memBytes, for a caller-supplied model builder.
func MaxBatchSize(build func(batch int) *Model, memBytes int64) int {
	return dnn.MaxBatchSize(build, memBytes)
}

// Memory-timeline surface (paper §5.2's memory question, answered
// dynamically). The static EstimateMemory sums worst-case components;
// the timeline simulates when each activation is allocated (its
// producing layer's forward kernel starts) and freed (its last backward
// consumer finishes), so the peak reflects the schedule — and memory
// what-ifs (OptVDNN, OptGist) change it.
type (
	// MemoryProfile is a simulation's per-device memory timeline: peak
	// bytes, the interval the peak holds over, the full timeline, and
	// per-tensor peak attribution.
	MemoryProfile = mem.Profile
	// DeviceMemoryProfile is one device's timeline within a
	// MemoryProfile.
	DeviceMemoryProfile = mem.DeviceProfile
	// MemorySample is one timeline breakpoint (allocated bytes from T
	// until the next sample).
	MemorySample = mem.Sample
	// MemoryAnnotation is a graph's tensor schedule (who allocates and
	// frees each activation) plus its resident parameter+gradient
	// bytes; AnnotateMemory memoizes it on the graph.
	MemoryAnnotation = mem.Annotation
	// MemoryTensorUse attributes part of a peak to one tensor.
	MemoryTensorUse = mem.TensorUse
	// MemoryMeasurer is the optional Optimization interface whose
	// RewriteTensors maps the baseline tensor schedule onto the
	// optimized view (OptVDNN's offloads, OptGist's compression).
	MemoryMeasurer = mem.MemMeasurer
)

// DeviceGPU is the device key single-accelerator profiles report under.
const DeviceGPU = mem.DeviceGPU

// AnnotateMemory builds (and memoizes on the graph) the tensor schedule
// the memory timeline sweeps: per activation, the producing forward
// task and the backward consumers, sized from the layer mapping's
// activation metadata. It errors on graphs without a layer mapping.
func AnnotateMemory(g *Graph) (*MemoryAnnotation, error) { return mem.AnnotationOf(g) }

// ComputeMemoryProfile sweeps the annotation's alloc/free events over a
// finished simulation of any view — Graph or Patch — and
// returns the per-device timeline. A pure post-pass: the SimResult is
// bit-identical before and after, on every simulation tier.
func ComputeMemoryProfile(v TaskView, res *SimResult, ann *MemoryAnnotation) (*MemoryProfile, error) {
	return mem.ComputeProfile(v, res, ann)
}

// ProfileOptimization answers one what-if with both halves of the
// prediction: the optimized makespan and the optimized memory profile,
// from one simulation. Clone-free through a Patch when the value allows
// it, under any carried scheduler, with the value's MemoryMeasurer
// rewrites applied. A nil or no-op opt profiles the baseline itself.
func ProfileOptimization(g *Graph, opt Optimization, opts ...SimOption) (time.Duration, *MemoryProfile, error) {
	return mem.ProfileOpt(g, opt, opts...)
}

// MaxBatchFit finds the largest batch size whose *simulated* peak
// memory under the optimization stack fits in capacityBytes — the
// dynamic counterpart of MaxBatchSize's static estimate, so memory
// optimizations raise the answer. build constructs the baseline graph
// at a candidate batch size; candidates are evaluated through the sweep
// tier by doubling+bisection over [1, maxBatch] (maxBatch < 1 selects
// mem.DefaultMaxBatch).
func MaxBatchFit(capacityBytes int64, build func(batch int) (*Graph, error), opt Optimization, maxBatch int) (int, error) {
	return mem.MaxBatchFit(capacityBytes, build, opt, maxBatch)
}

// PathAttribution groups critical-path time.
type PathAttribution = core.PathAttribution

// Diagnose simulates the graph, extracts its critical path — the chain of
// tasks that determines the iteration time — and attributes the path's
// time by execution resource and by training phase. It answers "why did
// my DNN training workload run slowly?" quantitatively.
func Diagnose(g *Graph) (byResource, byPhase []PathAttribution, err error) {
	res, err := g.Simulate()
	if err != nil {
		return nil, nil, err
	}
	return DiagnoseSim(g, res)
}

// DiagnoseSim is Diagnose over an existing simulation of any task view
// — the shared baseline, or the Patch of a clone-free scenario.
// KeepSims sweep consumers use it to diagnose patch scenarios straight
// from the retained SimResult, without materializing a graph: the
// critical path reads effective adjacency and sequence links through
// the view, and the attribution uses the simulation's effective
// timings.
func DiagnoseSim(v TaskView, res *SimResult) (byResource, byPhase []PathAttribution, err error) {
	path := core.CriticalPathView(v, res)
	return core.AttributePathSim(res, path, core.ByThreadKind),
		core.AttributePathSim(res, path, core.ByPhase), nil
}

// CriticalPath returns the simulated critical path of any task view —
// the chain of tasks whose starts coincide with the constraints that
// determine the makespan. For patch simulations the walk
// reads the view's effective adjacency, so no materialization is
// needed.
func CriticalPath(v TaskView, res *SimResult) []*Task {
	return core.CriticalPathView(v, res)
}

// AttributePathSim groups a critical path's time by the labeling
// function using the simulation's effective per-task timings, sorted by
// descending time. ByThreadKind, ByPhase and ByLayer are ready-made
// labelers.
func AttributePathSim(res *SimResult, path []*Task, label func(*Task) string) []PathAttribution {
	return core.AttributePathSim(res, path, label)
}

// ByThreadKind labels tasks by execution-resource kind (cpu/stream/
// channel), for AttributePathSim.
func ByThreadKind(t *Task) string { return core.ByThreadKind(t) }

// ByPhase labels mapped tasks by training phase, for AttributePathSim.
func ByPhase(t *Task) string { return core.ByPhase(t) }

// ByLayer labels mapped tasks by layer name, for AttributePathSim.
func ByLayer(t *Task) string { return core.ByLayer(t) }

// Compare answers one what-if question against the baseline graph and
// reports (baseline, predicted) iteration times. Every Optimization
// applies through one copy-on-write Patch over the baseline (or over
// its Repeat, for a value that models several iterations such as
// OptP3), and a no-op (an empty Stack) replays the baseline. An
// optimization carrying its own metric (OptP3) reports it instead of
// the makespan, and one carrying a scheduling policy (OptVDNN)
// simulates under it.
//
// Optional SimOptions apply to both the baseline and predicted
// simulations — most usefully WithContext, which bounds the whole
// comparison by a deadline and turns an overrun into a typed
// ErrDeadlineExceeded instead of an unbounded compute.
//
// The baseline graph is never mutated.
func Compare(g *Graph, opt Optimization, opts ...SimOption) (baseline, predicted time.Duration, err error) {
	if opt == nil {
		return 0, 0, fmt.Errorf("daydream: Compare: nil what-if")
	}
	// PredictIteration does not mutate, so the baseline needs no clone.
	baseline, err = g.PredictIteration(opts...)
	if err != nil {
		return 0, 0, err
	}
	if core.OptIsNoop(opt) {
		return baseline, baseline, nil
	}
	predicted, err = predictOptimization(g, opt, opts...)
	return baseline, predicted, err
}

// predictOptimization evaluates a non-noop Optimization through a patch
// over core.OptBaseline's graph, under any scheduling policy the value
// carries, and extracts its metric.
func predictOptimization(g *Graph, opt Optimization, opts ...SimOption) (time.Duration, error) {
	measure := core.OptMeasure(opt)
	var simOpts []core.SimOption
	if s := core.OptScheduler(opt); s != nil {
		simOpts = append(simOpts, core.WithScheduler(s))
	}
	simOpts = append(simOpts, opts...)
	g, apply, err := core.OptBaseline(g, opt)
	if err != nil {
		return 0, err
	}
	p := core.NewPatch(g)
	if err := apply.Apply(p); err != nil {
		return 0, err
	}
	res, err := p.Simulate(simOpts...)
	if err != nil {
		return 0, err
	}
	if measure != nil {
		return measure(p, res)
	}
	return res.Makespan, nil
}
