// Package sweep answers many what-if questions from one profiled
// baseline concurrently — the scaling axis of Daydream's value
// proposition (Algorithm 1, §4–5): once a trace is collected and its
// dependency graph built, every additional prediction is a
// transformation and a simulation, and those are independent across
// scenarios.
//
// Run fans a scenario list out over a worker pool. The baseline graph
// is shared immutably. A scenario declares its what-if as one
// core.Optimization value in Opt, and takes one of two paths:
//
//   - Patch scenarios (every Opt that changes anything) record
//     copy-on-write deltas in a worker-owned core.Patch and simulate
//     through it — zero clone for timing edits AND structural edits
//     (task/edge additions and removals). Timing-only patches keep the
//     timing fast path, and once a worker has seen two
//     timing-only scenarios against the same baseline it builds a
//     core.IncrementalSim and re-simulates only each delta's affected
//     cone (the incremental tier; see Result.Tier). Custom Schedulers —
//     scenario-supplied or carried by the optimization itself
//     (core.SchedulerCarrier, e.g. vDNN's copy-stream policy) — run
//     view-generically over the same patch, so scheduled structural
//     scenarios are clone-free too. A value that models several
//     iterations (core.RoundsCarrier, P3) patches core.OptBaseline's
//     Repeat-expanded copy of the baseline, built once per Run call
//     and shared by every worker and every row that declares the same
//     rounds over the same baseline.
//   - Replay scenarios (no what-if at all, or a no-op Opt such as an
//     empty core.Stack) simulate the shared baseline directly, which
//     never mutates it.
//
// A core.Stack of any parts runs on one patch. One-off custom edits
// are values too: core.PatchOpt for timing or structural deltas.
//
// Each worker owns one reusable core.SimScratch, one patch and one
// result buffer, so steady-state scenario evaluation allocates almost
// nothing. Results come back in scenario order regardless of worker
// count, and every scenario is deterministic, so a sweep is
// bit-identical to the equivalent sequential loop — and the patch path
// is bit-identical to materializing the same edits and simulating the
// result.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"daydream/internal/core"
)

// ErrPanic marks a scenario whose user callback (Optimization,
// Scheduler, Measure) panicked. The worker recovered, the panic became
// the scenario's Result.Err (a *PanicError carrying the value and
// stack), and the worker's reusable buffers were quarantined so later
// scenarios start from fresh state.
var ErrPanic = errors.New("sweep: scenario panicked")

// PanicError is a recovered scenario panic: the panic value and the
// goroutine stack at recovery. It unwraps to ErrPanic.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the worker goroutine's stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: scenario panicked: %v\n%s", e.Value, e.Stack)
}

// Unwrap makes errors.Is(err, ErrPanic) true.
func (e *PanicError) Unwrap() error { return ErrPanic }

// Scenario is one what-if question: a transformation of the baseline
// graph, an optional scheduling policy, and an optional metric to
// extract from the simulation.
type Scenario struct {
	// Name labels the scenario in results; it always wins over the
	// optimization's own name — when empty and Opt is set, the
	// optimization's Name() fills in.
	Name string
	// Base optionally overrides the sweep-wide baseline for this
	// scenario — e.g. a per-model profile in a models × configs grid.
	Base *core.Graph
	// Opt is the scenario's what-if: a self-describing
	// core.Optimization value. Every value applies through a
	// worker-owned core.Patch over the shared baseline (or, for a value
	// that declares several rounds, over core.OptBaseline's repeated
	// copy of it), and a nil Opt or a known no-op (an empty
	// core.Stack) replays the baseline. An optimization carrying its
	// own metric (P3) supplies the Measure unless the scenario sets
	// one.
	Opt core.Optimization
	// SimOptions are extra simulation options (e.g. a custom scheduler,
	// which runs view-generically over the worker's patch — clone-free —
	// and overrides any policy the Opt itself carries).
	SimOptions []core.SimOption
	// Measure extracts the scenario's value from the simulation; nil
	// means the makespan (the predicted iteration time). The TaskView
	// is whatever the simulation ran over — the shared baseline for
	// replay scenarios, the worker's Patch for patch scenarios — and
	// MUST be treated as read-only; read effective timings through the
	// SimResult (Finish, TaskDuration), never from Task fields. Unless
	// KeepSims is set, the SimResult's storage is reused for the
	// worker's next scenario, so Measure must not retain it (nor a
	// Patch view's Tasks() slice).
	Measure func(v core.TaskView, res *core.SimResult) (time.Duration, error)
}

// Dispatch tiers a scenario can be evaluated on, cheapest first. They
// are reported in Result.Tier and printed by `daydream sweep -explain`.
const (
	// TierReplay: no what-if at all; the shared baseline is simulated
	// in place.
	TierReplay = "replay"
	// TierIncremental: a timing-only delta re-simulated from the
	// worker's warm schedule, recomputing only the affected cone.
	TierIncremental = "incremental"
	// TierOverlay: a timing-only delta cold-simulated through the
	// patch's copy-on-write timing tier (no warm state yet, a custom
	// scheduler, or a delta the incremental schedule cannot model).
	TierOverlay = "overlay"
	// TierPatch: structural copy-on-write deltas simulated through the
	// composite patch view.
	TierPatch = "patch"
	// TierClone is reported by no scenario: every what-if is a patch.
	// The name stays declared for callers that still tally it.
	TierClone = "clone"
)

// Result is one scenario's outcome, delivered in scenario order.
type Result struct {
	// Name echoes the scenario label (Scenario.Name when set, the
	// optimization's name otherwise) — including on error results.
	Name string
	// Tier is the dispatch tier the scenario was evaluated on (one of
	// the Tier… constants), explaining its cost; empty on pre-dispatch
	// errors.
	Tier string
	// Value is the measured prediction (makespan unless the scenario
	// set a Measure).
	Value time.Duration
	// Graph is the transformed graph, retained only under KeepGraphs,
	// and always private to the caller: replay scenarios retain a
	// clone of the baseline, and patch scenarios retain a materialized
	// clone carrying the patch's timing and structural deltas.
	Graph *core.Graph
	// Sim is the simulation result, retained only under KeepSims.
	Sim *core.SimResult
	// Err is the scenario's failure, if any.
	Err error
}

type config struct {
	workers    int
	keepGraphs bool
	keepSims   bool
	ctx        context.Context
	pool       *Pool
	// repeats and repeat share the call's repeated baselines; both are
	// nil when no scenario declares rounds.
	repeats *repeats
	repeat  func(*core.Graph, int) (*core.Graph, error)
}

// Option configures a sweep.
type Option func(*config)

// Workers caps the worker pool; values below 1 select GOMAXPROCS.
func Workers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithContext bounds the sweep by ctx: once it is canceled (or its
// deadline passes), in-flight simulations abort at their next periodic
// check and every not-yet-evaluated scenario returns a typed
// core.ErrCanceled/core.ErrDeadlineExceeded result row instead of
// running. Run still returns the full scenario-ordered result slice —
// cancellation produces error rows, never missing rows — and the pool
// always drains before Run returns, so no goroutines outlive the call.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// KeepGraphs retains each scenario's transformed graph in its Result.
// Off by default: a large sweep would otherwise hold every clone alive.
func KeepGraphs() Option {
	return func(c *config) { c.keepGraphs = true }
}

// KeepSims retains each scenario's SimResult in its Result.
func KeepSims() Option {
	return func(c *config) { c.keepSims = true }
}

// Pool retains sweep worker state across Run calls, for long-lived
// callers that answer many small batteries against recurring baselines
// — a prediction service evaluating one scenario per request, or a
// driver issuing grids in a loop. A plain Run builds each worker's
// reusable buffers (simulation scratch, copy-on-write patch, result
// buffer, warm incremental schedule) fresh and discards them when the
// call returns; Pool.Run checks workers out of a free list instead, so
// the buffers — including the incremental tier's warm baseline
// schedule, the expensive one — survive from one call to the next.
// With a pooled worker, a single timing-only scenario against a
// baseline the pool has seen before rides the incremental tier
// immediately instead of paying a cold replay.
//
// A Pool is safe for concurrent use: concurrent Run calls check out
// disjoint workers, and a worker whose scenario panicked was
// quarantined (its buffers replaced) before being returned, so
// poisoned state never crosses calls. When the free list is empty a
// fresh worker is built on demand; at most maxIdle workers are
// retained when calls finish.
type Pool struct {
	mu   sync.Mutex
	free []*worker
	max  int
}

// NewPool builds a worker-state pool retaining at most maxIdle idle
// workers; values below 1 select GOMAXPROCS.
func NewPool(maxIdle int) *Pool {
	if maxIdle < 1 {
		maxIdle = runtime.GOMAXPROCS(0)
	}
	return &Pool{max: maxIdle}
}

// Run is Run with this pool's reusable worker state. Options and
// semantics are identical to the package-level Run.
func (p *Pool) Run(baseline *core.Graph, scenarios []Scenario, opts ...Option) ([]Result, error) {
	merged := make([]Option, 0, len(opts)+1)
	merged = append(merged, opts...)
	merged = append(merged, func(c *config) { c.pool = p })
	return Run(baseline, scenarios, merged...)
}

// get checks a worker out of the free list, building one when empty.
func (p *Pool) get() *worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return w
	}
	return &worker{scratch: core.NewSimScratch()}
}

// put returns a worker to the free list, dropping it when the list is
// at capacity.
func (p *Pool) put(w *worker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < p.max {
		p.free = append(p.free, w)
	}
}

// worker is the per-goroutine reusable state: the simulation scratch,
// the copy-on-write patch for clone-free scenarios, the result buffer
// reused when results are not retained, and the incremental tier's warm
// state.
type worker struct {
	scratch *core.SimScratch
	patch   *core.Patch
	buf     *core.SimResult
	// incr is the worker's warm incremental simulator; incrBase arms
	// the lazy build. A warm build costs one cold simulation, so it
	// only pays off when a baseline recurs: the first timing-only
	// scenario against a baseline runs cold and arms, the second
	// builds, and later ones ride the warm schedule. One-off baselines
	// (a models × configs grid with per-scenario Base) never build.
	incr     *core.IncrementalSim
	incrBase *core.Graph
}

// quarantine discards every reusable buffer the worker owns. It runs
// after a recovered panic: a callback that panicked mid-edit can leave
// the patch, incremental warm state, scratch or result buffer
// in an arbitrary half-written state, and no invariant of theirs can be
// trusted afterwards. The replacements are rebuilt lazily by the next
// scenario, so one poisoned scenario costs one round of reallocation —
// never a corrupted later row (the shared baseline itself is immutable
// to the patch path and cannot be poisoned).
func (w *worker) quarantine() {
	w.scratch = core.NewSimScratch()
	w.patch = nil
	w.buf = nil
	w.incr = nil
	w.incrBase = nil
}

// forget drops the worker's references into the baselines drop
// reports: the patch (whose appendix and compiled baseline form still
// belong to its baseline after a Reset), the incremental tier's state
// and arm, and the scratch, whose compiled form still lists the last
// simulation's tasks. It runs when a worker's last row of a call is
// done, for the call's repeated baselines, and after a row over a
// baseline private to that row, so a pooled worker holds neither
// between calls. A worker that touched no such baseline keeps all of
// its buffers.
func (w *worker) forget(drop func(*core.Graph) bool) {
	touched := false
	if w.patch != nil && drop(w.patch.Base()) {
		w.patch, touched = nil, true
	}
	if w.incr != nil && drop(w.incr.Baseline()) {
		w.incr, touched = nil, true
	}
	if w.incrBase != nil && drop(w.incrBase) {
		w.incrBase = nil
	}
	if touched {
		w.scratch = core.NewSimScratch()
	}
}

// repeats memoizes core.OptBaseline's Repeat of each (baseline, rounds)
// pair for one Run call, so a grid of round-declaring rows (P3 at
// several bandwidths) builds the repeated graph once and every worker
// patches that one copy. The first row to ask builds it while the
// others wait for it. Nothing outlives the call: each worker forgets
// the graphs before Run returns.
type repeats struct {
	mu sync.Mutex
	m  map[repeatKey]*repeated
}

type repeatKey struct {
	g *core.Graph
	n int
}

type repeated struct {
	once sync.Once
	g    *core.Graph
	err  error
}

// newRepeats returns an empty memo when some scenario declares rounds,
// and nil otherwise.
func newRepeats(scenarios []Scenario) *repeats {
	for i := range scenarios {
		if core.OptRounds(scenarios[i].Opt) > 1 {
			return &repeats{m: make(map[repeatKey]*repeated)}
		}
	}
	return nil
}

// get returns g.Repeat(n), building it on the call's first request.
func (c *repeats) get(g *core.Graph, n int) (*core.Graph, error) {
	k := repeatKey{g, n}
	c.mu.Lock()
	r := c.m[k]
	if r == nil {
		r = &repeated{}
		c.m[k] = r
	}
	c.mu.Unlock()
	r.once.Do(func() {
		rg, err := g.Repeat(n)
		// Published under mu: holds reads r.g from other workers.
		c.mu.Lock()
		r.g, r.err = rg, err
		c.mu.Unlock()
	})
	return r.g, r.err
}

// holds reports whether g is one of the memo's repeated graphs.
func (c *repeats) holds(g *core.Graph) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.m {
		if r.g == g {
			return true
		}
	}
	return false
}

// simTimingOnly evaluates the worker's (timing-only) patch on the
// incremental tier when warm state for base exists or is now justified,
// and on the cold timing path (TierOverlay) otherwise. It returns the
// simulation result and the dispatch tier taken.
func (w *worker) simTimingOnly(base *core.Graph, hasSched bool, simOpts []core.SimOption) (*core.SimResult, string, error) {
	// A custom scheduler can't ride the incremental tier (ReSimulate
	// would fall straight through to cold anyway) — and must not arm
	// the lazy build, whose warm simulation it could never use. The
	// same goes for a delta whose estimated cone is near-total (over
	// ~3/4 of the span): a dense one (past the patch's dense-storage
	// crossover, e.g. AMP rescaling half the graph) always is, and a
	// sparse one can be — a few edits at the very front of the
	// iteration invalidate almost the whole warm schedule. Such a delta
	// takes the cold replay and neither arms nor consumes warm state
	// its re-simulation could not profit from.
	if !hasSched && !nearTotalCone(w.patch) {
		if w.incr == nil || w.incr.Baseline() != base {
			if w.incrBase != base {
				w.incrBase = base
			} else if incr, err := core.NewIncrementalSim(base); err == nil {
				w.incr = incr
			}
			// A failed warm build (a cyclic graph) falls through: the
			// cold path below reports the same error to the caller.
		}
		if w.incr != nil && w.incr.Baseline() == base {
			res, err := w.incr.ReSimulate(w.patch, simOpts...)
			tier := TierIncremental
			if w.incr.LastFellBack() {
				tier = TierOverlay
			}
			return res, tier, err
		}
	}
	res, err := w.patch.Simulate(simOpts...)
	return res, TierOverlay, err
}

// nearTotalCone reports whether the timing delta's estimated affected
// cone covers more than ~3/4 of the baseline's task span — the
// tier-chooser threshold past which incremental re-simulation is
// expected to recompute nearly everything and a cold replay wins.
func nearTotalCone(p *core.Patch) bool {
	cone, total := p.EstimateConeSize()
	return total > 0 && cone*4 > total*3
}

// Run executes every scenario against the shared baseline (or the
// scenario's own Base) on a worker pool and returns the results in
// scenario order. The returned error is the first scenario error in
// scenario order, if any (preferring non-cancellation failures, so a
// scenario's own error is reported rather than the rows a canceled
// context turned into errors); per-scenario errors are also in the
// results. Every scenario runs: one scenario's error does not stop the
// others.
//
// The baseline (and any scenario Base) must not be mutated while the
// sweep runs; the sweep itself never writes it.
//
// Fault-tolerance contract: a scenario whose callback panics yields
// exactly one *PanicError row and quarantines that worker's reusable
// buffers (see ErrPanic); a canceled WithContext yields typed
// cancellation rows for everything not yet evaluated; in every case
// the pool drains fully before Run returns — no goroutine outlives it.
func Run(baseline *core.Graph, scenarios []Scenario, opts ...Option) ([]Result, error) {
	cfg := config{}
	for _, o := range opts {
		o(&cfg)
	}
	workers := cfg.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	results := make([]Result, len(scenarios))
	if len(scenarios) == 0 {
		return results, nil
	}

	if cfg.repeats = newRepeats(scenarios); cfg.repeats != nil {
		cfg.repeat = cfg.repeats.get
	}

	// The jobs channel is buffered for the whole scenario list, so the
	// producer enqueues everything up front and never interleaves with
	// the workers' draining.
	jobs := make(chan int, len(scenarios))
	for i := range scenarios {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{scratch: core.NewSimScratch()}
			if cfg.pool != nil {
				w = cfg.pool.get()
				defer cfg.pool.put(w)
			}
			for i := range jobs {
				// A canceled sweep converts the remaining queue into
				// typed rows without evaluating anything further.
				if cfg.ctx != nil {
					if cerr := cfg.ctx.Err(); cerr != nil {
						results[i] = Result{Name: nameOf(&scenarios[i]), Err: core.ContextError(cerr)}
						continue
					}
				}
				results[i] = runOneSafe(baseline, &scenarios[i], w, &cfg)
			}
			if cfg.repeats != nil {
				w.forget(cfg.repeats.holds)
			}
		}()
	}
	wg.Wait()

	firstErr := -1
	for i := range results {
		if results[i].Err == nil {
			continue
		}
		if firstErr < 0 {
			firstErr = i
		}
		if !errors.Is(results[i].Err, core.ErrCanceled) && !errors.Is(results[i].Err, core.ErrDeadlineExceeded) {
			firstErr = i
			break
		}
	}
	if firstErr >= 0 {
		return results, fmt.Errorf("sweep: scenario %d (%s): %w", firstErr, results[firstErr].Name, results[firstErr].Err)
	}
	return results, nil
}

// nameOf resolves the result label for a scenario that was never
// evaluated, with runOne's precedence: Scenario.Name, then the
// optimization's own name.
func nameOf(sc *Scenario) string {
	if sc.Name != "" {
		return sc.Name
	}
	if sc.Opt != nil {
		return sc.Opt.Name()
	}
	return ""
}

// runOneSafe runs one scenario with panic isolation: a panic in any
// user callback — Optimization.Apply, a custom Scheduler picking
// inside Simulate, Measure — is recovered into a *PanicError result
// row, and the worker's reusable state is quarantined before the next
// scenario.
func runOneSafe(baseline *core.Graph, sc *Scenario, w *worker, cfg *config) (r Result) {
	defer func() {
		if v := recover(); v != nil {
			r = Result{Name: nameOf(sc), Err: &PanicError{Value: v, Stack: debug.Stack()}}
			w.quarantine()
		}
	}()
	return runOne(baseline, sc, w, cfg)
}

// runOne evaluates a single scenario with the worker-owned state.
func runOne(baseline *core.Graph, sc *Scenario, w *worker, cfg *config) Result {
	// Name precedence is fixed up front so every result — including
	// error results below — carries the scenario's own Name when set.
	r := Result{Name: sc.Name}
	if r.Name == "" && sc.Opt != nil {
		r.Name = sc.Opt.Name()
	}
	base := sc.Base
	if base == nil {
		base = baseline
	}
	if base == nil {
		r.Err = fmt.Errorf("no baseline graph (neither sweep-wide nor scenario Base)")
		return r
	}
	// Resolve the scenario's what-if onto the two evaluation paths: the
	// replay fast path for no-ops, the patch path for everything else.
	opt := sc.Opt
	measure := sc.Measure
	if measure == nil {
		measure = core.OptMeasure(opt)
	}
	replay := core.OptIsNoop(opt)

	simOpts := make([]core.SimOption, 0, len(sc.SimOptions)+4)
	// The sweep's context rides into every simulation tier, so an
	// in-flight scenario aborts at the next periodic check — last in
	// precedence order would not matter, but appending it first keeps a
	// scenario-supplied WithContext (via SimOptions) authoritative.
	if cfg.ctx != nil {
		simOpts = append(simOpts, core.WithContext(cfg.ctx))
	}
	// An optimization carrying its own scheduling policy (vDNN's
	// delayed-prefetch ordering) supplies it first, so an explicit
	// WithScheduler in the scenario's SimOptions still wins.
	if s := core.OptScheduler(opt); s != nil {
		simOpts = append(simOpts, core.WithScheduler(s))
	}
	simOpts = append(simOpts, sc.SimOptions...)
	simOpts = append(simOpts, core.WithScratch(w.scratch))
	if !cfg.keepSims {
		if w.buf == nil {
			w.buf = &core.SimResult{}
		}
		simOpts = append(simOpts, core.WithResultBuffer(w.buf))
	}

	var (
		view core.TaskView
		res  *core.SimResult
		err  error
	)
	if replay {
		// Replay path: Simulate never mutates, so the baseline is
		// simulated in place and handed to Measure read-only. Cloning
		// still happens under KeepGraphs, where the caller receives a
		// graph it may legally mutate.
		view = base
		r.Tier = TierReplay
		res, err = base.Simulate(simOpts...)
	} else {
		// Patch path: timing and structural deltas through the
		// worker-owned patch, over the shared baseline or the call's
		// repeated copy of it.
		shared := base
		var apply core.Optimization
		if base, apply, err = core.OptBaselineWith(base, opt, cfg.repeat); err != nil {
			r.Err = err
			return r
		}
		// A stack materializes parts before its rounds into a baseline
		// of this row's own, which no later row can reuse.
		if base != shared && !cfg.repeats.holds(base) {
			private := base
			defer w.forget(func(g *core.Graph) bool { return g == private })
		}
		if w.patch == nil {
			w.patch = core.NewPatch(base)
		} else {
			w.patch.Reset(base)
		}
		if err = apply.Apply(w.patch); err != nil {
			r.Err = err
			return r
		}
		view = w.patch
		if w.patch.Structural() {
			r.Tier = TierPatch
			res, err = w.patch.Simulate(simOpts...)
		} else {
			hasSched := core.SchedulerOf(simOpts...) != nil
			res, r.Tier, err = w.simTimingOnly(base, hasSched, simOpts)
		}
	}
	if err != nil {
		r.Err = err
		return r
	}
	if measure != nil {
		r.Value, r.Err = measure(view, res)
		if r.Err != nil {
			return r
		}
	} else {
		r.Value = res.Makespan
	}
	// KeepGraphs hands back a private graph, never the shared baseline:
	// a clone of it, or one carrying the patch's deltas.
	if cfg.keepGraphs {
		if replay {
			r.Graph = base.Clone()
		} else if r.Graph, r.Err = w.patch.Materialize(); r.Err != nil {
			return r
		}
	}
	if cfg.keepSims {
		r.Sim = res
	}
	return r
}
