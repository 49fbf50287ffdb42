// Package daydream is a Go reproduction of "Daydream: Accurately
// Estimating the Efficacy of Optimizations for DNN Training" (Zhu,
// Phanishayee, Pekhimenko — USENIX ATC 2020).
//
// Daydream answers what-if questions about DNN training performance
// ("will mixed precision help my model?", "how will training scale to 16
// GPUs on a 10 Gbps network?") without implementing the optimizations. It
// works in four phases:
//
//  1. Collect a kernel-level trace of one training iteration (CUPTI-shaped
//     records plus per-layer instrumentation). In this reproduction the
//     trace comes from a deterministic synthetic training executor that
//     substitutes for real GPUs — see DESIGN.md for the substitution
//     argument.
//  2. Build a kernel-granularity dependency graph with the paper's five
//     dependency types, and map tasks to DNN layers without synchronization.
//  3. Transform the graph to model an optimization, using the primitives
//     Select, Scale, Insert, Remove and custom schedulers.
//  4. Simulate the transformed graph (the paper's Algorithm 1) to predict
//     the new iteration time.
//
// The basic flow asks questions with first-class Optimization values:
//
//	tr, _ := daydream.Collect(daydream.CollectConfig{Model: "resnet50"})
//	g, _ := daydream.BuildGraph(tr)
//	base, pred, _ := daydream.Compare(g, daydream.OptAMP())
//	fmt.Printf("AMP would change %v to %v\n", base, pred)
//
// Every optimization model is an Optimization value (OptAMP,
// OptFusedAdam, OptReconBatchnorm, OptDistributed, OptP3,
// OptDeviceUpgrade, OptKernelProfile, OptScale), and Stack composes
// several into one composed what-if, the way the paper evaluates
// optimization combinations:
//
//	both := daydream.Stack(daydream.OptAMP(), daydream.OptFusedAdam())
//	base, pred, _ = daydream.Compare(g, both)
//
// A value is self-describing — it knows its name and whether it only
// rewrites task timings (TimingOnly) or changes graph structure
// (Structural) — and applies itself through one unified surface:
// Apply(*Patch). A Patch is a copy-on-write view of the shared
// immutable baseline layering structural deltas (task additions in an
// appendix ID range, task removals, edge additions/removals with
// kinds) on top of per-task timing deltas, and Patch.Simulate runs
// Algorithm 1 over the composite view bit-identically to cloning and
// mutating — so no optimization ever needs a clone. The registry
// (Optimizations, OptimizationByName, ParseOptimization) resolves names
// and "amp+fusedadam"-style stack expressions (duplicate names are
// rejected), and PatchOptimization builds custom values that compose
// with the built-ins.
//
// Because a single profile answers arbitrarily many what-if questions,
// the package is built to make each additional question cheap. The
// dependency graph uses dense slice-indexed storage (task IDs are array
// indices, adjacency is CSR-style on the tasks), so Clone is a
// near-memcpy and Simulate runs a binary-heap frontier over flat
// arrays; a Patch simulates timing-only edits on a fast path that
// compiles no structure and structural edits through masked/appendix
// arrays. Sweep fans
// a whole scenario grid out over a worker pool sharing one baseline,
// with every Opt on the clone-free patch path — a value that models
// several iterations (OptP3) patches a per-scenario Repeat of it:
//
//	results, _ := daydream.Sweep(g, []daydream.Scenario{
//	    {Opt: daydream.OptAMP()},                                  // timing tier
//	    {Opt: both},                                               // one shared patch
//	    {Opt: daydream.OptDistributed(daydream.NewTopology(4, 2, 10))}, // structural deltas, no clone
//	})
//
// Scheduling policies are first-class too. A Scheduler overrides
// Algorithm 1's schedule(): Pick(frontier, ctx) returns the index of
// the frontier task to dispatch and reads the simulation's effective
// state — timings, priorities, earliest starts — through the
// SchedContext, which makes policies view-generic: the same policy runs
// clone-free over a Graph or a Patch,
// bit-identical to scheduling the materialized graph. Supply one with
// WithScheduler (directly or in a Scenario's SimOptions), or let the
// optimization carry its own (OptVDNN pairs vDNN's offload/prefetch
// surgery with its copy-stream policy via core.SchedulerCarrier). A
// policy that refines the default order by a static per-task class also
// implements Class(*Task) int (core.KeyedScheduler) and runs on the heap
// loop at the default policy's cost; the pipeline what-if's 1F1B and
// GPipe policies do. Pick is for opaque custom policies. A pipeline
// patch supersedes the baseline (Patch.SupersedeBaseline), and a
// default or keyed simulation of it runs only the stage skeleton.
// KeepSims consumers diagnose any scenario without materializing:
// CriticalPath and DiagnoseSim walk the effective adjacency of the
// TaskView the simulation ran over.
//
// Every what-if has one form. The built-ins are Opt* values (OptAMP,
// OptFusedAdam, OptDistributed, …); custom what-ifs are built with
// PatchOptimization; and
// Compare and Scenario take only an Optimization. Measurer and
// Scenario.Measure read a read-only TaskView (a *Graph or *Patch).
//
// See the examples/ directory for complete programs, and cmd/daydream-bench
// for the harness that regenerates every table and figure of the paper's
// evaluation (its -micro mode writes pipeline benchmarks to BENCH.json,
// and -against gates CI on trajectory regressions).
package daydream
