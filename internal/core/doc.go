// Package core implements Daydream's primary contribution: the
// kernel-granularity dependency graph with mappings back to DNN layers
// (paper §4). It provides
//
//   - graph construction from CUPTI-shaped traces with the paper's five
//     dependency types (§4.2.2),
//   - the synchronization-free task-to-layer mapping (§4.3, Figure 3),
//   - the graph-transformation primitives Select / Scale / Insert /
//     Remove and overridable task scheduling (§4.4): every what-if
//     records them on a copy-on-write Patch (ScaleDuration, NewTask and
//     the Insert forms, RemoveTask) over an immutable baseline, and
//   - the frontier-based runtime simulator of Algorithm 1.
//
// # Graph layout
//
// Build, Graph.Repeat and Graph.Clone produce arena layouts: all tasks in
// one []Task, and all adjacency in three shared buffers (children, child
// kinds, parents) of which each task holds capacity-clipped windows.
// Build and Repeat record their edges in insertion order into one flat
// list counted exactly up front, then lay it out in one pass, so a
// task's adjacency order is the order one AddDependency per edge would
// give. Later edits reallocate per task: a task whose adjacency grows
// copies its own window out and leaves its neighbours' alone.
//
// # Simulation tiers
//
// One Algorithm-1 loop, four evaluation tiers, cheapest first.
// Graph.Simulate and Patch.Simulate each compile their view into one
// flat per-ID form: the live-task table, effective
// durations, gaps and priorities, thread ordinals, and child lists that
// default to the baseline's own adjacency and are overridden only for
// the tasks whose out-edges a patch changed. One lazy-key heap loop runs
// over that form under the default policy or a KeyedScheduler (its class
// packed into the priority slot), parking an entry that finds its
// thread busy on that thread until the thread frees, and one scheduled
// loop under an opaque custom Scheduler. The baseline's share of the
// form — per-ID durations, gaps and priorities and the thread layout,
// 28 bytes per task ID — is memoized on the Graph the first time a view
// compiles it, published atomically and shared read-only by every
// Patch and IncrementalSim over that graph, so rebinding a patch between
// baselines is a pointer load. The structural mutators (NewTask,
// Remove, InsertAfter, InsertBefore) and MapLayers drop it; Clone and
// Repeat start without one; task timing fields written in place after a
// view has read the graph are not seen. Graph.Simulate borrows its
// thread layout when one exists and otherwise builds none. A Patch
// whose baseline is superseded (SupersedeBaseline) and joined to its
// appendix by no edge or thread runs the heap loop over the appendix
// alone. A *Graph is the form with no deltas, a Patch adds timing
// deltas (sparse while few, dense per-ID arrays past a crossover) and,
// when structural, its appendix, removals and edge edits. Every tier is
// bit-identical to cloning the baseline, mutating the clone and
// cold-simulating it; they differ only in how much work a what-if costs. Numbers are BENCH.json's
// bert-large workload (~12.7K tasks); the sweep dispatches between them
// automatically and reports its choice per scenario in Result.Tier
// (daydream sweep -explain).
//
//   - incremental — IncrementalSim.ReSimulate over a warm baseline
//     schedule, the one tier with a loop of its own: recompute only the
//     delta's affected cone, ~11µs for a single-task duration delta
//     (~75× the overlay replay). Cost is proportional to the cone, so it
//     shines on sparse deltas that land late in the schedule or are
//     absorbed by slack; a delta editing more than 1/8 of the tasks is
//     answered cold (the cutoff), and deltas it cannot model — priority
//     edits, structural ops, custom schedulers, negative timings — take
//     the documented cold fallback.
//   - overlay replay — Patch.Simulate of a patch with no structural
//     delta: a full cold replay through copy-on-write timing deltas,
//     with no structural compile, ~0.82ms. The workhorse for dense
//     timing-only what-ifs (AMP rescales half the graph).
//   - patch — Patch.Simulate of a structural patch: the composite view
//     (appendix IDs, masked removals, overridden child lists) over the
//     same timing deltas, ~1.3ms for the Distributed insertion scenario.
//   - cold — Graph.Simulate of the baseline itself, ~1.3ms; also the
//     replay tier for no-op scenarios in a sweep.
//
// No tier clones: a what-if that models several iterations (P3, via
// RoundsCarrier) patches a Repeat-expanded baseline that OptBaseline
// builds once per evaluation, or that OptBaselineWith takes from the
// caller (a sweep shares one per call). A Stack carrying one is applied in order
// by OptBaseline, every part but the last materialized, so the parts
// before the rounds edit every round.
//
// # Round windows
//
// WithRoundWindow(w) puts any simulation — Graph or Patch,
// scheduled or not — into windowed mode: rounds more than w behind the
// newest finished round are retired into RoundSummary records (round
// end, span contribution, per-thread ends including gaps) and their
// per-task start storage is reclaimed, so a Repeat(1000)-scale run
// holds O(window) starts instead of O(rounds). The contract:
//
//   - Eligibility: task IDs must be non-decreasing in Task.Round
//     (round-major order, which Repeat and the pipeline appendix
//     produce). A violating view fails fast with ErrNotRoundMajor
//     before simulating.
//   - Retained window: StartOf, Finish and TaskDuration on tasks of
//     the last w rounds are bit-identical to the unwindowed run, as
//     are Makespan, ThreadEnd and RoundSpan (served from summaries for
//     retired rounds). SimResult.Start is empty on windowed results —
//     always read through the accessors.
//   - Retired rounds: StartOf reports !ok; Finish/TaskDuration panic,
//     the same way out-of-range IDs do. Summaries() exposes the
//     retired rounds' aggregates, RetiredRounds() their count, and
//     WindowOccupancy() the high-water per-task slots held.
//   - Full-array consumers: code that needs every start (the
//     internal/mem post-pass) rejects windowed results with
//     ErrWindowedResult; the documented fallback is to re-simulate
//     without the window — full materialization costs exactly one
//     unwindowed run, never a hidden partial answer.
//   - Memory bound: O(window) occupancy also needs the graph to
//     couple rounds across threads (e.g. 1F1B's admission cap). An
//     uncoupled thread may run arbitrarily far ahead, and the window
//     tracks the skew — correct, just not smaller.
//
// # Failure modes
//
// Every way a simulation can fail is a typed sentinel, matchable with
// errors.Is through any wrapping:
//
//	ErrCanceled          the context was canceled (also matches context.Canceled)
//	ErrDeadlineExceeded  the context deadline passed (also matches context.DeadlineExceeded)
//	ErrCycle             Validate found a dependency cycle (*CycleError lists members)
//	ErrDanglingEdge      a patch edge references a removed or unknown task
//	ErrNegativeDuration  an effective duration or duration+gap is negative
//	ErrStalled           simulation ended with live tasks unexecuted (*StallError
//	                     names the first blocked tasks) — the runtime face of a cycle
//
// Cancellation contract: WithContext(ctx) threads a context through
// every tier. Graph.Simulate, Patch.Simulate and the
// scheduled path check the context on entry and then every 1024
// executed tasks; IncrementalSim.ReSimulate checks every 1024
// recomputed cone members. A nil context costs nothing (the checks
// compile to a nil test). On abort the typed error wraps both the
// taxonomy sentinel and the context's cause, and any WithScratch
// buffers are left reset and reusable.
//
// Validation contract: Graph.Validate and Patch.Validate reject cycles,
// dangling edges and negative timings up front with the sentinels
// above, so a hostile delta never half-executes; if a cyclic view does
// reach Simulate, the run completes and reports *StallError rather
// than returning a silently-partial schedule.
package core
