package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"
)

// Scheduler picks the next task to dispatch from the execution frontier —
// the paper's overridable schedule() of Algorithm 1 (§4.4 "Schedule").
//
// Pick returns the index into frontier of the task to dispatch; the
// simulator removes the pick with an O(1) swap, so a custom policy costs
// one frontier scan per step, not two. The SchedContext exposes the
// effective state of the view the simulation runs over — a *Graph or a
// *Patch — so one policy evaluates clone-free everywhere: read timings
// and priorities through ctx (ctx.Priority, ctx.Duration), never from
// raw Task fields, which hold baseline values under a patch.
// Implementations must be deterministic. Returning an index outside
// [0, len(frontier)) aborts the simulation with an error.
type Scheduler interface {
	Pick(frontier []*Task, ctx *SchedContext) int
}

// KeyedScheduler is a Scheduler whose order is the default
// earliest-start order extended by a static per-task class: among the
// frontier tasks that can start earliest, the lowest Class wins, then
// the higher effective priority, then the lower task ID. The pipeline
// what-if's policies are keyed. The simulator evaluates Class once per
// task, packs it with the priority into the heap loop's key, and never
// calls Pick. Pick must implement the same order, because a run whose
// classes or priorities do not fit the packed key (a Class outside
// [0, MaxClass], a priority outside the int32 range) falls back to the
// scheduled loop. Class must depend only on the task, never on the
// run's progress.
type KeyedScheduler interface {
	Scheduler
	Class(t *Task) int
}

// MaxClass is the largest class a KeyedScheduler's packed key holds.
const MaxClass = math.MaxInt32

// SchedContext is the read surface a Scheduler picks through: the
// effective per-task attributes of the simulation's task view plus the
// evolving schedule state (earliest starts, per-thread progress). It is
// valid only for the duration of the Pick call that receives it.
type SchedContext struct {
	f          *simForm
	earliest   []time.Duration
	threadEnds []time.Duration
}

// View returns the task view the simulation runs over: the *Graph
// itself, or the *Patch whose effective attributes the scheduler must
// read through.
func (c *SchedContext) View() TaskView { return c.f.view }

// EffStart returns the earliest time the task could begin given its
// completed dependencies and current thread progress.
func (c *SchedContext) EffStart(t *Task) time.Duration {
	return max(c.earliest[t.ID], c.threadEnds[c.f.threadOf[t.ID]])
}

// Duration returns the task's effective duration under the view.
func (c *SchedContext) Duration(t *Task) time.Duration {
	d, _ := c.f.timing(t)
	return d
}

// Gap returns the task's effective gap under the view.
func (c *SchedContext) Gap(t *Task) time.Duration {
	_, gp := c.f.timing(t)
	return gp
}

// Priority returns the task's effective scheduling priority under the
// view — including priorities overlaid by a what-if, which Task.Priority
// cannot see.
func (c *SchedContext) Priority(t *Task) int { return c.f.priority(t) }

// EarliestStart is the default scheduler: the frontier task with the
// earliest effective start wins; ties fall to higher priority, then lower
// task ID.
type EarliestStart struct{}

// Pick implements Scheduler.
func (EarliestStart) Pick(frontier []*Task, ctx *SchedContext) int {
	best := -1
	var bestT time.Duration
	var bestPrio int
	for i, t := range frontier {
		et := ctx.EffStart(t)
		switch {
		case best < 0, et < bestT:
			best, bestT, bestPrio = i, et, ctx.Priority(t)
		case et == bestT:
			if p := ctx.Priority(t); p > bestPrio || (p == bestPrio && t.ID < frontier[best].ID) {
				best, bestPrio = i, p
			}
		}
	}
	return best
}

// customScheduler returns s unless it is nil or the default
// earliest-start policy (which stays on the heap fast path).
func customScheduler(s Scheduler) Scheduler {
	if s == nil {
		return nil
	}
	if _, isDefault := s.(EarliestStart); isDefault {
		return nil
	}
	return s
}

// SimResult is the outcome of one simulation.
type SimResult struct {
	// Makespan is the time from simulation start to the completion of
	// the last task (gaps included).
	Makespan time.Duration
	// Start is indexed by task ID and holds each task's simulated start
	// time. Its length is the graph's ID span (removed IDs stay zero).
	Start []time.Duration
	// ThreadEnd maps each thread to its final progress.
	ThreadEnd map[ThreadID]time.Duration

	// dur and gap are the compiled form's effective per-task timings,
	// kept by every unwindowed Patch simulation (empty for a plain
	// Graph.Simulate, where the Task fields are authoritative).
	// TaskDuration/TaskGap/Finish read through them so result consumers
	// never see baseline timings for a patched task.
	dur, gap []time.Duration

	// win holds the sliding-window state of a round-windowed simulation
	// (WithRoundWindow); nil for ordinary results. When set, Start is
	// empty and per-task reads route through the window.
	win *windowState
}

// TaskDuration returns the task duration the simulation used: the
// patch's effective duration for a patch simulation, the task's own
// Duration otherwise. On a windowed result the task must be within the
// retained window.
func (r *SimResult) TaskDuration(t *Task) time.Duration {
	if w := r.win; w != nil {
		if w.durRing == nil {
			return t.Duration
		}
		if t.ID < w.lo[w.retired] {
			w.retiredPanic("TaskDuration", t)
		}
		return w.durRing[t.ID%len(w.durRing)]
	}
	if len(r.dur) > t.ID {
		return r.dur[t.ID]
	}
	return t.Duration
}

// TaskGap returns the gap the simulation used for the task (see
// TaskDuration).
func (r *SimResult) TaskGap(t *Task) time.Duration {
	if w := r.win; w != nil {
		if w.gapRing == nil {
			return t.Gap
		}
		if t.ID < w.lo[w.retired] {
			w.retiredPanic("TaskGap", t)
		}
		return w.gapRing[t.ID%len(w.gapRing)]
	}
	if len(r.gap) > t.ID {
		return r.gap[t.ID]
	}
	return t.Gap
}

// Finish returns the simulated completion time of a task. On a windowed
// result the task must be within the retained window (use
// Summaries/RoundSpan for retired rounds).
func (r *SimResult) Finish(t *Task) time.Duration {
	if w := r.win; w != nil {
		start, ok := w.startOf(t.ID)
		if !ok {
			w.retiredPanic("Finish", t)
		}
		return start + r.TaskDuration(t)
	}
	return r.Start[t.ID] + r.TaskDuration(t)
}

// Reset clears the result to its zero state while keeping every backing
// array (and the ThreadEnd map) allocated, so a pooled result can be
// handed back to WithResultBuffer without re-allocating. A reset result
// reads as empty: no starts, no thread ends, no effective timings.
func (r *SimResult) Reset() {
	r.Makespan = 0
	r.Start = r.Start[:0]
	for k := range r.ThreadEnd {
		delete(r.ThreadEnd, k)
	}
	r.dur = r.dur[:0]
	r.gap = r.gap[:0]
	r.win = nil
}

// Clone returns a deep copy of the result: the copy shares no storage
// with the original, so one can keep a warm baseline result alive (for
// incremental re-simulation or later inspection) while the original's
// buffer is reused by the next simulation. Window state (rings,
// summaries) is deep-copied too.
func (r *SimResult) Clone() *SimResult {
	c := &SimResult{
		Makespan: r.Makespan,
		Start:    append([]time.Duration(nil), r.Start...),
		dur:      append([]time.Duration(nil), r.dur...),
		gap:      append([]time.Duration(nil), r.gap...),
	}
	if r.ThreadEnd != nil {
		c.ThreadEnd = make(map[ThreadID]time.Duration, len(r.ThreadEnd))
		for k, v := range r.ThreadEnd {
			c.ThreadEnd[k] = v
		}
	}
	if r.win != nil {
		w := *r.win
		w.lo = append([]int(nil), r.win.lo...)
		w.hi = append([]int(nil), r.win.hi...)
		w.left = append([]int(nil), r.win.left...)
		w.rEnd = append([]time.Duration(nil), r.win.rEnd...)
		w.rThreads = make([]map[ThreadID]time.Duration, len(r.win.rThreads))
		for i, m := range r.win.rThreads {
			if m == nil {
				continue
			}
			cm := make(map[ThreadID]time.Duration, len(m))
			for k, v := range m {
				cm[k] = v
			}
			w.rThreads[i] = cm
		}
		w.ring = append([]time.Duration(nil), r.win.ring...)
		w.durRing = append([]time.Duration(nil), r.win.durRing...)
		w.gapRing = append([]time.Duration(nil), r.win.gapRing...)
		w.summaries = make([]RoundSummary, len(r.win.summaries))
		for i, s := range r.win.summaries {
			cs := s
			if s.ThreadEnd != nil {
				cs.ThreadEnd = make(map[ThreadID]time.Duration, len(s.ThreadEnd))
				for k, v := range s.ThreadEnd {
					cs.ThreadEnd[k] = v
				}
			}
			w.summaries[i] = cs
		}
		c.win = &w
	}
	return c
}

// newResult readies result storage for an ID span of n, reusing buf's
// backing arrays when one was supplied via WithResultBuffer.
func newResult(buf *SimResult, n, threads int) *SimResult {
	if buf == nil {
		return &SimResult{
			Start:     make([]time.Duration, n),
			ThreadEnd: make(map[ThreadID]time.Duration, threads),
		}
	}
	buf.Makespan = 0
	buf.Start = resize(buf.Start, n)
	clear(buf.Start)
	if buf.ThreadEnd == nil {
		buf.ThreadEnd = make(map[ThreadID]time.Duration, threads)
	} else {
		for k := range buf.ThreadEnd {
			delete(buf.ThreadEnd, k)
		}
	}
	// Keep the capacity, drop the content: a plain simulation must not
	// inherit a previous patch simulation's timings (or a previous
	// windowed simulation's window).
	buf.dur = buf.dur[:0]
	buf.gap = buf.gap[:0]
	buf.win = nil
	return buf
}

// SimScratch holds the reusable per-simulation working set: the storage
// of the compiled form (task table, effective priorities and windowed
// timings, thread layout, adjacency overrides) and the loop state
// (reference counts, earliest starts, per-thread progress, frontier).
// A scratch may be reused across any number of sequential simulations of
// views of any size (it grows as needed), which removes almost all
// per-simulation allocation — the property the sweep worker pool relies
// on. A scratch must not be shared by concurrent simulations.
type SimScratch struct {
	// form and sched live here, not on the stack, because the
	// scheduler's read surface escapes through Pick: per-run values
	// would cost an allocation each.
	form  simForm
	sched SchedContext

	ref        []int
	earliest   []time.Duration
	threadEnds []time.Duration // progress by thread ordinal
	heap       []heapEntry
	frontier   []*Task
	// busy, busyAt and parked hold runHeap's parked tasks: parked[th]
	// is thread ordinal th's heap of parked tasks, ordered by
	// (-priority, ID); busy holds one entry per thread with parked
	// tasks, and busyAt[th] is that entry's index in busy, or -1.
	busy   []heapEntry
	busyAt []int32
	parked [][]heapEntry

	tasks []*Task
	prio  []int
	// keys holds a KeyedScheduler's classes packed with the priorities.
	keys []int
	// effDur and effGap hold the effective timings of a *windowed* run:
	// transient loop state, so the retained result stays O(window) while
	// timing reads stay O(1).
	effDur, effGap []time.Duration
	threadOf       []int32
	threadIDs      []ThreadID
	kids           [][]*Task
	kidBuf         []*Task
	changed        []*Task
}

// NewSimScratch returns an empty scratch, ready for WithScratch.
func NewSimScratch() *SimScratch { return &SimScratch{} }

// layoutThreads appends the thread ordinal of each task to of, indexing
// ids and appending the threads it has not seen yet. A nil task gets
// ordinal -1. Views have few threads and consecutive tasks often share
// one, so a remembered last hit plus a linear scan beats hashing.
func layoutThreads(of []int32, ids []ThreadID, tasks []*Task) ([]int32, []ThreadID) {
	of, ids = slices.Grow(of, len(tasks)), slices.Grow(ids, 8)
	last := int32(-1)
	for _, t := range tasks {
		if t == nil {
			of = append(of, -1)
			continue
		}
		if last < 0 || ids[last] != t.Thread {
			if last = int32(slices.Index(ids, t.Thread)); last < 0 {
				last = int32(len(ids))
				ids = append(ids, t.Thread)
			}
		}
		of = append(of, last)
	}
	return of, ids
}

// heapEntry is one frontier entry: a task ID with the effective-start
// key it was pushed with and its effective priority. Entries hold no
// pointers, so the heap's swaps cost the garbage collector nothing. Every
// key bounds its task's true start from below (keys only grow as the
// simulation progresses), so an entry whose key is current is the true
// minimum under the (start, -priority, ID) order — exactly the task
// EarliestStart's linear scan would have picked. The entry carries the
// effective priority so patch simulations can tie-break on patched
// priorities without touching the shared baseline tasks. Under a
// KeyedScheduler the priority slot holds priority − class·2³², which
// orders by (class, -priority) in the same comparison; the argument is
// unchanged because everything but the start is static.
type heapEntry struct {
	key  time.Duration
	prio int
	id   int32
}

func heapLess(a, b heapEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.id < b.id
}

func heapPush(h []heapEntry, e heapEntry) []heapEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func heapPop(h []heapEntry) (heapEntry, []heapEntry) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && heapLess(h[l], h[least]) {
			least = l
		}
		if r < n && heapLess(h[r], h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top, h
}

// busyFix restores the busy heap's order around index i, whose entry
// changed, and keeps at (each thread ordinal's index in the heap)
// current. An entry's thread is its task's: of maps task IDs to thread
// ordinals.
func busyFix(h []heapEntry, at, of []int32, i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		at[of[h[i].id]] = int32(i)
		i = parent
	}
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		if r := l + 1; r < len(h) && heapLess(h[r], h[l]) {
			l = r
		}
		if !heapLess(h[l], e) {
			break
		}
		h[i] = h[l]
		at[of[h[i].id]] = int32(i)
		i = l
	}
	h[i] = e
	at[of[e.id]] = int32(i)
}

// simOptions collects Simulate options.
type simOptions struct {
	scheduler Scheduler
	scratch   *SimScratch
	result    *SimResult
	// ctx, when non-nil, is checked on entry and every
	// cancelCheckInterval dispatches; a canceled or expired context
	// aborts the simulation with a typed ErrCanceled /
	// ErrDeadlineExceeded error.
	ctx context.Context
	// execOrder, when non-nil, receives every task ID in execution
	// (pop) order — a valid topological order of the effective edge set.
	// IncrementalSim records the warm schedule through it.
	execOrder *[]int32
	// window, when positive, enables round-windowed simulation
	// (WithRoundWindow): retired rounds keep only a RoundSummary while
	// a sliding window of that many rounds keeps full per-task starts.
	window int
}

// newSimOptions applies opts and runs the entry cancellation check, so
// a pre-canceled context returns promptly and typed before any scratch
// is touched. Without WithScratch the run uses *own, allocated on first
// use, or a fresh scratch when own is nil.
func newSimOptions(opts []SimOption, own **SimScratch) (simOptions, error) {
	var o simOptions
	for _, fn := range opts {
		fn(&o)
	}
	if err := ctxCanceled(o.ctx); err != nil {
		return o, err
	}
	if o.scratch == nil && own != nil {
		if *own == nil {
			*own = &SimScratch{}
		}
		o.scratch = *own
	}
	if o.scratch == nil {
		o.scratch = &SimScratch{}
	}
	return o, nil
}

// timings returns storage for n effective durations and gaps: the
// result buffer's own arrays, so the result carries them, or scratch
// arrays for a windowed run, whose rings keep only the window's share.
func (o *simOptions) timings(n int) (dur, gap []time.Duration) {
	if o.window > 0 {
		s := o.scratch
		s.effDur, s.effGap = resize(s.effDur, n), resize(s.effGap, n)
		return s.effDur, s.effGap
	}
	if o.result == nil {
		o.result = &SimResult{}
	}
	r := o.result
	r.dur, r.gap = resize(r.dur, n), resize(r.gap, n)
	return r.dur, r.gap
}

// cancelCheckInterval is how many task dispatches pass between context
// polls — the cooperative-cancellation granularity of every simulate
// path. At ~10⁷ dispatches/s a poll every 1024 tasks bounds the
// cancellation latency to well under a millisecond while keeping the
// hot loop's overhead unmeasurable (one predictable nil check per
// dispatch when no context is set).
const cancelCheckInterval = 1024

// ctxCanceled reports the context's error if it is non-nil and done —
// the entry check every simulate path runs before touching scratch, so
// a pre-canceled context returns promptly and typed.
func ctxCanceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return ContextError(cerr)
	}
	return nil
}

// withExecOrder records the execution order of a default-policy
// simulation into ord (appending; the caller truncates). Internal:
// only the incremental simulator's warm build uses it.
func withExecOrder(ord *[]int32) SimOption {
	return func(o *simOptions) { o.execOrder = ord }
}

// SimOption configures Simulate.
type SimOption func(*simOptions)

// WithScheduler overrides the default earliest-start scheduling policy
// (used, e.g., to model P3's priority queues or vDNN's prefetch policy).
func WithScheduler(s Scheduler) SimOption {
	return func(o *simOptions) { o.scheduler = s }
}

// WithContext makes the simulation cooperatively cancellable: the
// context is checked on entry and every cancelCheckInterval (1024)
// task dispatches, on every simulate path (Graph, Patch, scheduled,
// incremental). A canceled context aborts with an error
// wrapping ErrCanceled; an expired deadline wraps ErrDeadlineExceeded —
// both also match the originating context error under errors.Is. An
// aborted simulation leaves the caller's scratch and result buffer
// valid for reuse (their contents are unspecified).
func WithContext(ctx context.Context) SimOption {
	return func(o *simOptions) { o.ctx = ctx }
}

// WithScratch reuses a caller-owned working set across simulations,
// eliminating per-simulation allocation of the frontier and bookkeeping
// arrays. The scratch must not be used by two simulations concurrently.
// Without it, a Patch reuses a working set of its own and a Graph,
// which concurrent simulations may share, allocates a fresh one.
func WithScratch(s *SimScratch) SimOption {
	return func(o *simOptions) { o.scratch = s }
}

// WithResultBuffer fills (and returns) the caller-owned SimResult
// instead of allocating a fresh one, reusing its backing arrays.
//
// Discard semantics: the previous contents of buf are discarded
// unconditionally — Makespan is zeroed, Start is resized and cleared to
// the new view's ID span, ThreadEnd's entries are deleted (the map
// itself is kept), and any effective timings from an earlier patch
// simulation are dropped so a plain Graph simulation never inherits
// them. Nothing of the earlier result survives, so a caller that reuses
// one buffer across simulations must be fully done with the earlier
// result — copy what it needs first (SimResult.Clone) or pool distinct
// buffers (SimResult.Reset). The sweep worker pool relies on this to
// make steady-state scenario evaluation allocation-free when results
// are not retained.
func WithResultBuffer(buf *SimResult) SimOption {
	return func(o *simOptions) { o.result = buf }
}

// SchedulerOf resolves the custom scheduling policy configured by the
// options, or nil when they select the default earliest-start policy.
// Dispatch layers (the sweep's tier selection) use it to decide whether
// a scenario is eligible for schedules that only model the default
// policy, such as the incremental tier.
func SchedulerOf(opts ...SimOption) Scheduler {
	var o simOptions
	for _, fn := range opts {
		fn(&o)
	}
	return customScheduler(o.scheduler)
}

// Simulate executes Algorithm 1 of the paper: a frontier-based replay that
// dispatches each task to its execution thread once its dependencies
// complete, advancing per-thread progress by duration plus gap, and
// propagating earliest-start times along dependency edges.
//
// Under the default earliest-start policy or a KeyedScheduler the
// frontier is a binary heap with lazily updated keys; any other custom
// Scheduler sees the frontier as a plain slice, preserving the
// overridable schedule() contract.
func (g *Graph) Simulate(opts ...SimOption) (*SimResult, error) {
	o, err := newSimOptions(opts, nil)
	if err != nil {
		return nil, err
	}
	return g.compile(&o).simulate(&o)
}

// compile compiles the graph itself: its Task fields are the effective
// values, so only the thread layout is derived. A graph some view has
// already compiled lends its memoized layout; otherwise the layout goes
// into scratch, so a one-shot simulation of a fresh graph (an upload's
// baseline) neither builds nor keeps the per-ID timing arrays only views
// need.
func (g *Graph) compile(o *simOptions) *simForm {
	s := o.scratch
	f := &s.form
	*f = simForm{view: g, tasks: g.tasks, live: g.live}
	if base := g.form.Load(); base != nil {
		f.threadOf, f.threadIDs = base.threadOf, base.threadIDs
	} else {
		s.threadOf, s.threadIDs = layoutThreads(s.threadOf[:0], s.threadIDs[:0], g.tasks)
		f.threadOf, f.threadIDs = s.threadOf, s.threadIDs
	}
	return f
}

// simForm is the flat per-ID form every TaskView compiles to before
// simulating, so one heap loop and one scheduled loop serve every view.
// A *Graph compiles to its own task table with no deltas; a Patch adds
// effective timings and priorities and, when structural, its appendix,
// masks removed IDs and overrides the adjacency of just the tasks whose
// out-edges it changed, so the edge set is never copied.
type simForm struct {
	view TaskView
	// tasks holds the live tasks by ID (nil for absent or removed IDs);
	// live counts them.
	tasks []*Task
	live  int
	// dur, gap and prio hold effective values by ID; nil means the Task
	// fields are authoritative (dur and gap are nil only for a *Graph).
	dur, gap []time.Duration
	prio     []int
	// threadOf maps task IDs to thread ordinals, threadIDs ordinals to
	// threads.
	threadOf  []int32
	threadIDs []ThreadID
	// kids, when non-nil, replaces Task.children for every ID with a
	// non-nil entry; changed lists those tasks, removed ones included.
	kids    [][]*Task
	changed []*Task
	// skip describes a superseded baseline the run skips (see
	// Patch.SupersedeBaseline): compile sets it, and simulate clears it
	// for a run whose order is not static. Zero when there is none.
	skip skipSpan
}

// skipSpan is a baseline a static-order run may skip: the IDs below ids
// hold live tasks with zero effective duration and gap, on thread
// ordinals below threads, joined by no edge to any later task, with an
// acyclic edge set among themselves. Each of them starts at 0 in every
// static-order run, and the appendix's dispatch order does not depend on
// them, so the loop leaves their starts at 0, ends their threads at 0,
// counts them executed and runs only the tasks from ids on. An opaque
// Pick may still order the appendix by what the baseline's dispatches
// left on the frontier, so it always runs the full loop.
type skipSpan struct {
	ids, live, threads int
}

// threadUntouched marks a thread that has not run a task yet.
const threadUntouched = time.Duration(math.MinInt64)

func (f *simForm) timing(t *Task) (dur, gap time.Duration) {
	if f.dur == nil {
		return t.Duration, t.Gap
	}
	return f.dur[t.ID], f.gap[t.ID]
}

func (f *simForm) priority(t *Task) int {
	if f.prio == nil {
		return t.Priority
	}
	return f.prio[t.ID]
}

func (f *simForm) children(t *Task) []*Task {
	if f.kids != nil {
		if k := f.kids[t.ID]; k != nil {
			return k
		}
	}
	return t.children
}

// simulate readies the result and the loop state, then runs the heap
// loop or, for a custom policy without a fitting key, the scheduled
// loop.
func (f *simForm) simulate(o *simOptions) (*SimResult, error) {
	n := len(f.tasks)
	resN := n
	if o.window > 0 {
		resN = 0 // windowed: starts live in the window rings, not Start
	}
	res := newResult(o.result, resN, len(f.threadIDs))
	if o.window > 0 {
		win, err := newWindowState(f, o.window)
		if err != nil {
			return nil, err
		}
		res.win = win
	} else if f.dur != nil {
		res.dur, res.gap = f.dur, f.gap
	}
	s := o.scratch
	s.ensure(n)
	// From here on f.skip is the run's own: a windowed or recorded run,
	// and any policy left on Pick, runs every task.
	if o.window > 0 || o.execOrder != nil {
		f.skip = skipSpan{}
	}
	sched := customScheduler(o.scheduler)
	if keyed, ok := sched.(KeyedScheduler); ok && f.packClasses(keyed, s, f.skip.ids) {
		sched = nil
	}
	if sched != nil {
		f.skip = skipSpan{}
	}
	// Reference counts over the effective edge set: each task's baseline
	// indegree, corrected by the out-edges of the changed tasks.
	ref := s.ref
	for id := f.skip.ids; id < n; id++ {
		s.earliest[id] = 0
		ref[id] = 0
		if t := f.tasks[id]; t != nil {
			ref[id] = len(t.parents)
		}
	}
	for _, u := range f.changed {
		for _, c := range u.children {
			ref[c.ID]--
		}
		if f.tasks[u.ID] == u {
			for _, c := range f.kids[u.ID] {
				ref[c.ID]++
			}
		}
	}
	s.threadEnds = resize(s.threadEnds, len(f.threadIDs))
	for i := range s.threadEnds {
		s.threadEnds[i] = threadUntouched
	}
	clear(s.threadEnds[:f.skip.threads])
	if sched != nil {
		return f.runScheduled(sched, s, res, o.ctx)
	}
	return f.runHeap(s, res, o)
}

// packClasses packs the policy's class of every live task from ID from
// on with its effective priority into the scratch's key array, and
// makes that array the form's priorities. It reports false, leaving the
// form untouched, when a class or a priority does not fit the packing.
func (f *simForm) packClasses(k KeyedScheduler, s *SimScratch, from int) bool {
	if math.MaxInt == math.MaxInt32 {
		return false // no room for a 32-bit class above the priority
	}
	keys := resize(s.keys, len(f.tasks))
	s.keys = keys
	for id := from; id < len(f.tasks); id++ {
		t := f.tasks[id]
		if t == nil {
			continue
		}
		c, p := k.Class(t), f.priority(t)
		if c < 0 || c > MaxClass || p < math.MinInt32 || p > math.MaxInt32 {
			return false
		}
		keys[id] = p - c<<32
	}
	f.prio = keys
	return true
}

// ensure sizes the per-ID loop arrays for an ID span of n.
func (s *SimScratch) ensure(n int) {
	s.ref = resize(s.ref, n)
	s.earliest = resize(s.earliest, n)
	s.heap = s.heap[:0]
	s.frontier = s.frontier[:0]
}

// runHeap is Algorithm 1 under a static order — the default
// earliest-start policy, or a KeyedScheduler's classes packed into the
// priorities — with the frontier kept as a lazy-key binary heap (see
// heapEntry). It starts past the skipped baseline (f.skip), counting
// those tasks executed.
//
// A popped entry whose key is stale has a busy thread: its key already
// covered its dependencies, so only its thread's end can have moved
// past it. From then on the task's true start is that thread's end, as
// it is for every other task parked there, and they dispatch in
// (-priority, ID) order. So instead of going back on the heap, the task
// is parked on its thread (s.parked), and each thread with parked tasks
// keeps one exact entry in a second heap, s.busy: its end, with its
// best parked task's priority and ID. The entry is updated in place
// whenever the thread's end or its best parked task changes. Each loop
// step takes the lesser of the two heaps' tops, so the dispatch order
// is the same as re-pushing stale entries, but a task goes stale at
// most once, and a run with no stale pops never touches the busy heap.
func (f *simForm) runHeap(s *SimScratch, res *SimResult, o *simOptions) (*SimResult, error) {
	ref, earliest, threadEnds, threadOf := s.ref, s.earliest, s.threadEnds, f.threadOf
	dur, gap := f.dur, f.gap
	ctx, execOrder := o.ctx, o.execOrder
	h := s.heap
	s.busy, s.busyAt = s.busy[:0], s.busyAt[:0] // readied by the first park
	for _, t := range f.tasks[f.skip.ids:] {
		if t != nil && ref[t.ID] == 0 {
			h = heapPush(h, heapEntry{0, f.priority(t), int32(t.ID)})
		}
	}
	executed := f.skip.live
	for len(h) > 0 || len(s.busy) > 0 {
		var e heapEntry
		if len(s.busy) > 0 && (len(h) == 0 || heapLess(s.busy[0], h[0])) {
			e = s.unpark(threadOf)
		} else {
			e, h = heapPop(h)
			if start := max(earliest[e.id], threadEnds[threadOf[e.id]]); start > e.key {
				s.park(e, start, len(f.threadIDs), threadOf)
				continue
			}
		}
		// e.key is now the task's start: a current key, or its
		// thread's end.
		u := f.tasks[e.id]
		d, gp := u.Duration, u.Gap
		if dur != nil {
			d, gp = dur[u.ID], gap[u.ID]
		}
		start := e.key
		end := start + d + gp
		if res.win == nil {
			res.Start[u.ID] = start
		} else {
			res.win.record(u, start, d, gp)
		}
		th := threadOf[u.ID]
		threadEnds[th] = end
		if len(s.busy) > 0 {
			s.moved(th, end, threadOf)
		}
		res.Makespan = max(res.Makespan, end)
		executed++
		if ctx != nil && executed%cancelCheckInterval == 0 {
			if err := ctxCanceled(ctx); err != nil {
				s.heap = h[:0]
				return nil, err
			}
		}
		if execOrder != nil {
			*execOrder = append(*execOrder, int32(u.ID))
		}
		for _, c := range f.children(u) {
			earliest[c.ID] = max(earliest[c.ID], end)
			ref[c.ID]--
			if ref[c.ID] == 0 {
				key := max(earliest[c.ID], threadEnds[threadOf[c.ID]])
				h = heapPush(h, heapEntry{key, f.priority(c), int32(c.ID)})
			}
		}
	}
	s.heap = h[:0]
	return f.finish(s, res, executed)
}

// park parks e, whose task's thread is busy until start, on that
// thread (see runHeap). threads is the run's thread count, which the
// first park of a run readies the parking storage for.
func (s *SimScratch) park(e heapEntry, start time.Duration, threads int, threadOf []int32) {
	if len(s.busyAt) == 0 {
		s.readyParking(threads)
	}
	th := threadOf[e.id]
	p := s.parked[th]
	if s.busyAt[th] < 0 {
		p = p[:0]
	}
	e.key = 0
	p = heapPush(p, e)
	s.parked[th] = p
	if i := s.busyAt[th]; i < 0 {
		s.busy = append(s.busy, heapEntry{start, e.prio, e.id})
		busyFix(s.busy, s.busyAt, threadOf, len(s.busy)-1)
	} else if p[0].id == e.id {
		s.busy[i].prio, s.busy[i].id = e.prio, e.id
		busyFix(s.busy, s.busyAt, threadOf, int(i))
	}
}

// unpark takes the top busy thread's best parked task off its thread
// and returns its busy entry, keyed by the thread's end. The entry
// passes to the thread's next parked task (moved rekeys it once the
// task has run), or leaves the busy heap with the thread's last one.
func (s *SimScratch) unpark(threadOf []int32) heapEntry {
	e := s.busy[0]
	th := threadOf[e.id]
	_, s.parked[th] = heapPop(s.parked[th])
	if p := s.parked[th]; len(p) > 0 {
		s.busy[0].prio, s.busy[0].id = p[0].prio, p[0].id
		return e
	}
	s.busyAt[th] = -1
	last := len(s.busy) - 1
	s.busy[0] = s.busy[last]
	if s.busy = s.busy[:last]; last > 0 {
		busyFix(s.busy, s.busyAt, threadOf, 0)
	}
	return e
}

// moved keeps thread th's busy entry, if it has one, keyed by its new
// end.
func (s *SimScratch) moved(th int32, end time.Duration, threadOf []int32) {
	if i := s.busyAt[th]; i >= 0 {
		s.busy[i].key = end
		busyFix(s.busy, s.busyAt, threadOf, int(i))
	}
}

// readyParking readies the parking storage for a run over the given
// number of thread ordinals, no thread holding parked tasks yet.
func (s *SimScratch) readyParking(threads int) {
	s.busyAt = resize(s.busyAt, threads)
	for i := range s.busyAt {
		s.busyAt[i] = -1
	}
	if n := threads - len(s.parked); n > 0 {
		s.parked = append(s.parked, make([][]heapEntry, n)...)
	}
}

// runScheduled is Algorithm 1 under an opaque policy: the scheduler sees
// the frontier as a slice, in the order tasks became ready, and reads
// effective attributes through the SchedContext, so one policy runs
// clone-free over every view with results bit-identical to
// materializing the view and simulating that. It records a dispatch
// exactly as runHeap does; the two stay separate loops, each with the
// dispatch written out, because a merged loop or a shared dispatch
// helper measurably slows the heap loop's overlay replays. The
// scratch's frontier storage is reset on every exit path, error or not,
// so a reused SimScratch never leaks stale frontier entries into the
// next simulation.
func (f *simForm) runScheduled(sched Scheduler, s *SimScratch, res *SimResult, ctx context.Context) (*SimResult, error) {
	ref, earliest, threadEnds, threadOf := s.ref, s.earliest, s.threadEnds, f.threadOf
	frontier := s.frontier
	for _, t := range f.tasks {
		if t != nil && ref[t.ID] == 0 {
			frontier = append(frontier, t)
		}
	}
	s.sched = SchedContext{f: f, earliest: earliest, threadEnds: threadEnds}
	executed := 0
	for len(frontier) > 0 {
		i := sched.Pick(frontier, &s.sched)
		if i < 0 || i >= len(frontier) {
			s.frontier = frontier[:0]
			return nil, fmt.Errorf("core: scheduler picked frontier index %d of %d", i, len(frontier))
		}
		u := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		start := s.sched.EffStart(u)
		d, gp := f.timing(u)
		end := start + d + gp
		if res.win == nil {
			res.Start[u.ID] = start
		} else {
			res.win.record(u, start, d, gp)
		}
		threadEnds[threadOf[u.ID]] = end
		res.Makespan = max(res.Makespan, end)
		executed++
		if ctx != nil && executed%cancelCheckInterval == 0 {
			if err := ctxCanceled(ctx); err != nil {
				s.frontier = frontier[:0]
				return nil, err
			}
		}
		for _, c := range f.children(u) {
			earliest[c.ID] = max(earliest[c.ID], end)
			ref[c.ID]--
			if ref[c.ID] == 0 {
				frontier = append(frontier, c)
			}
		}
	}
	s.frontier = frontier[:0]
	return f.finish(s, res, executed)
}

// finish records the touched threads' ends and reports a stall — a
// frontier that emptied with live tasks left: the effective graph cannot
// be fully ordered, and the unexecuted tasks are exactly those past the
// skipped baseline whose reference count never reached zero.
func (f *simForm) finish(s *SimScratch, res *SimResult, executed int) (*SimResult, error) {
	for i, end := range s.threadEnds {
		if end != threadUntouched {
			res.ThreadEnd[f.threadIDs[i]] = end
		}
	}
	if executed == f.live {
		return res, nil
	}
	var blocked []*Task
	for _, t := range f.tasks[f.skip.ids:] {
		if t != nil && s.ref[t.ID] > 0 {
			blocked = append(blocked, t)
		}
	}
	return nil, newStallError(executed, f.live, blocked)
}

// PredictIteration simulates the graph and returns the makespan — the
// predicted iteration time. It is a convenience wrapper for the common
// whole-graph question.
func (g *Graph) PredictIteration(opts ...SimOption) (time.Duration, error) {
	res, err := g.Simulate(opts...)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}
