package core

import (
	"fmt"
	"time"
)

// IncrementalSim re-simulates small timing deltas against a cached warm
// schedule in time proportional to the delta's *affected cone*, not the
// graph — the engine behind sublinear dense sweeps (per-layer scaling
// grids, kernel-profile curves), where adjacent scenarios differ by a
// handful of task durations but a cold Algorithm-1 run would replay all
// of them.
//
// Build once per baseline with NewIncrementalSim: the warm build runs
// one cold default-policy simulation, recording the execution order (a
// valid topological order of the dependency graph), the per-thread
// completion sequences, and every task's warm start/end. ReSimulate
// then takes any timing-only view of that baseline — the baseline
// itself or a non-structural *Patch — seeds a priority
// queue with the tasks whose effective duration/gap differ from warm,
// and propagates new start times forward in warm-ordinal order along
// dependency children and thread successors, stopping wherever a task's
// end time reconverges with the warm schedule.
//
// Results are bit-identical to a cold Simulate of the same view. The
// guarantee does not rest on the convergence heuristic: propagation is
// exact on threads whose warm execution order is forced by dependency
// edges (every consecutive pair linked — true of every thread the
// trace builder emits, which serializes thread sequences with
// DepSequence edges), and on any other thread the engine watches for
// the conditions under which the cold scheduler could reorder tasks
// (a processed task's dependency-ready time, start or end diverging
// from warm) and falls back to a full cold simulation of the view.
// Deltas the incremental schedule cannot model at all — structural
// patches, priority edits, custom schedulers, negative effective
// timings — take the same documented cold fallback, so ReSimulate is
// always safe to call and never less correct than Simulate, merely
// slower in the cases it cannot accelerate.
//
// An IncrementalSim is not safe for concurrent use; the sharing model
// is the patch's — one per goroutine over one shared immutable
// baseline (the warm build itself only reads the graph). The baseline
// must not be mutated while the IncrementalSim is bound to it.
type IncrementalSim struct {
	g     *Graph
	tasks []*Task
	n     int

	// Warm schedule, indexed by task ID unless noted.
	warmStart []time.Duration
	warmEnd   []time.Duration
	// base is the graph's compiled form, whose dur and gap are the warm
	// timings, shared read-only with every patch over the graph.
	base    *baseForm
	ord     []int32 // execution ordinal; -1 for ID holes
	byOrd   []int32 // task ID by execution ordinal
	thrPred []int32 // previous task ID in warm thread order; -1 none
	thrSucc []int32 // next task ID in warm thread order; -1 none
	thrOf   []int32 // thread ordinal; -1 for ID holes

	// Per-thread-ordinal warm state.
	thrIDs        []ThreadID
	warmThreadEnd []time.Duration
	forced        []bool // warm order forced by dependency edges

	warmMakespan time.Duration
	// negWarm: some warm task has Duration+Gap < 0, which breaks the
	// per-thread end-time monotonicity the makespan reconstruction
	// relies on; every ReSimulate falls back cold.
	negWarm bool

	// Per-call scratch (generation-stamped so no O(n) clearing).
	gen       uint64
	state     []uint64 // == gen: newStart/newEnd valid for this call
	inQ       []uint64 // == gen: task already queued this call
	newStart  []time.Duration
	newEnd    []time.Duration
	pq        []int32 // min-heap of warm ordinals
	seeds     []int32
	touched   []int32 // IDs whose start or end changed
	thrEndCur []time.Duration

	lastRecomputed int
	lastFellBack   bool
	stats          IncrStats
}

// IncrStats summarizes an IncrementalSim's lifetime behavior.
type IncrStats struct {
	// Calls counts ReSimulate invocations.
	Calls int
	// Fallbacks counts the calls answered by a cold simulation.
	Fallbacks int
	// Recomputed totals the tasks processed by incremental propagation
	// (fallback calls contribute the view's live-task count).
	Recomputed int
}

// NewIncrementalSim runs one cold default-policy simulation of g and
// caches its schedule as warm state for ReSimulate. The graph must not
// be mutated while the IncrementalSim is in use.
func NewIncrementalSim(g *Graph) (*IncrementalSim, error) {
	if g == nil {
		return nil, fmt.Errorf("core: NewIncrementalSim: nil graph")
	}
	n := len(g.tasks)
	base := g.compiledBase() // first, so the warm run borrows its layout
	order := make([]int32, 0, g.live)
	res, err := g.Simulate(withExecOrder(&order))
	if err != nil {
		return nil, err
	}
	s := &IncrementalSim{
		g:         g,
		tasks:     g.tasks,
		n:         n,
		warmStart: res.Start,
		warmEnd:   make([]time.Duration, n),
		base:      base,
		ord:       make([]int32, n),
		byOrd:     order,
		thrPred:   make([]int32, n),
		thrSucc:   make([]int32, n),
		thrOf:     make([]int32, n),

		warmMakespan: res.Makespan,

		state:    make([]uint64, n),
		inQ:      make([]uint64, n),
		newStart: make([]time.Duration, n),
		newEnd:   make([]time.Duration, n),
	}
	for id := range s.ord {
		s.ord[id] = -1
		s.thrPred[id] = -1
		s.thrSucc[id] = -1
		s.thrOf[id] = -1
	}
	for id, t := range g.tasks {
		if t == nil {
			continue
		}
		s.warmEnd[id] = s.warmStart[id] + t.Duration + t.Gap
		if t.Duration+t.Gap < 0 {
			s.negWarm = true
		}
	}
	// Per-thread warm sequences from the recorded execution order:
	// thread ordinals in order of first execution, predecessor/successor
	// links, and whether each thread's order is forced by edges.
	thrOrd := make(map[ThreadID]int32, len(g.threads))
	last := make([]int32, 0, len(g.threads)) // last executed task per thread ordinal
	for i, id32 := range order {
		s.ord[id32] = int32(i)
		t := g.tasks[id32]
		ti, ok := thrOrd[t.Thread]
		if !ok {
			ti = int32(len(s.thrIDs))
			thrOrd[t.Thread] = ti
			s.thrIDs = append(s.thrIDs, t.Thread)
			s.forced = append(s.forced, true)
			last = append(last, -1)
		}
		s.thrOf[id32] = ti
		if prev := last[ti]; prev >= 0 {
			s.thrPred[id32] = prev
			s.thrSucc[prev] = id32
			if s.forced[ti] && !hasEdge(g.tasks[prev], t) {
				s.forced[ti] = false
			}
		}
		last[ti] = id32
	}
	s.warmThreadEnd = make([]time.Duration, len(s.thrIDs))
	for ti, id := range last {
		s.warmThreadEnd[ti] = s.warmEnd[id]
	}
	return s, nil
}

// Baseline returns the graph the warm schedule was built from.
func (s *IncrementalSim) Baseline() *Graph { return s.g }

// WarmMakespan returns the baseline's cold-simulated makespan.
func (s *IncrementalSim) WarmMakespan() time.Duration { return s.warmMakespan }

// RecomputedTasks reports how many tasks the last ReSimulate call
// recomputed: the affected-cone size for an incremental call, the
// view's full live-task count for a fallback call.
func (s *IncrementalSim) RecomputedTasks() int { return s.lastRecomputed }

// LastFellBack reports whether the last ReSimulate call was answered by
// a cold simulation instead of incremental propagation.
func (s *IncrementalSim) LastFellBack() bool { return s.lastFellBack }

// Stats returns lifetime counters.
func (s *IncrementalSim) Stats() IncrStats { return s.stats }

// timingView extracts the patch that carries view's timing deltas over
// s's baseline, or reports that the view needs a cold simulation
// (structural patch, foreign type). A *Graph view (the baseline itself)
// yields a nil patch: the empty delta.
func (s *IncrementalSim) timingView(view TaskView) (tp *Patch, cold bool, err error) {
	switch v := view.(type) {
	case *Graph:
		if v != s.g {
			return nil, false, fmt.Errorf("core: ReSimulate: graph view is not the warm baseline")
		}
		return nil, false, nil
	case *Patch:
		if v.Base() != s.g {
			return nil, false, fmt.Errorf("core: ReSimulate: patch views a different baseline")
		}
		if v.Structural() {
			return nil, true, nil // added/removed tasks or edges: cold
		}
		return v, false, nil
	default:
		return nil, true, nil
	}
}

// coldSimulate is the fallback: a full cold simulation of the view with
// the caller's options (scratch, result buffer, scheduler).
func (s *IncrementalSim) coldSimulate(view TaskView, opts []SimOption) (*SimResult, error) {
	s.stats.Fallbacks++
	s.lastFellBack = true
	s.lastRecomputed = view.NumTasks()
	switch v := view.(type) {
	case *Graph:
		return v.Simulate(opts...)
	case *Patch:
		return v.Simulate(opts...)
	default:
		return nil, fmt.Errorf("core: ReSimulate: unsupported view %T", view)
	}
}

// ReSimulate computes the simulation result of a timing-only view of
// the warm baseline, bit-identical to view.Simulate(opts...), touching
// only the delta's affected cone when the delta permits. opts accepts
// the usual simulation options; WithResultBuffer reuses the caller's
// result storage exactly as in a cold simulation, and WithScratch /
// WithScheduler take effect on the fallback path (incremental
// propagation needs neither). Deltas outside the incremental schedule's
// reach — structural patches, priority edits, a custom scheduler,
// negative effective timings, or a divergence on a thread whose order
// is not dependency-forced — are answered by a cold simulation of the
// same view (see LastFellBack).
func (s *IncrementalSim) ReSimulate(view TaskView, opts ...SimOption) (*SimResult, error) {
	s.stats.Calls++
	s.lastFellBack = false
	if view == nil {
		return nil, fmt.Errorf("core: ReSimulate: nil view")
	}
	var so simOptions
	for _, fn := range opts {
		fn(&so)
	}
	if err := ctxCanceled(so.ctx); err != nil {
		return nil, err
	}
	tp, cold, err := s.timingView(view)
	if err != nil {
		return nil, err
	}
	// A round window cannot ride the warm schedule: fillResult
	// reconstructs the full start array the window exists to avoid. The
	// cold fallback forwards the caller's options verbatim, so the
	// window takes effect there.
	if cold || so.window > 0 || s.negWarm || customScheduler(so.scheduler) != nil || (tp != nil && tp.prioEdited) {
		return s.coldSimulate(view, opts)
	}

	// Seed the queue with every task whose effective timing differs
	// from warm. A negative effective Duration+Gap breaks per-thread
	// end monotonicity, so it goes cold like the other unreachable
	// deltas.
	s.seeds = s.seeds[:0]
	warmDur, warmGap := s.base.dur, s.base.gap
	if tp != nil {
		if tp.dense {
			for id := 0; id < s.n; id++ {
				if s.ord[id] < 0 {
					continue
				}
				if tp.dur[id] != warmDur[id] || tp.gap[id] != warmGap[id] {
					if tp.dur[id]+tp.gap[id] < 0 {
						return s.coldSimulate(view, opts)
					}
					s.seeds = append(s.seeds, int32(id))
				}
			}
		} else {
			for id, e := range tp.sparse {
				if id < 0 || id >= s.n || s.ord[id] < 0 {
					continue
				}
				d, gp := warmDur[id], warmGap[id]
				if e.set&editDur != 0 {
					d = e.dur
				}
				if e.set&editGap != 0 {
					gp = e.gap
				}
				if d != warmDur[id] || gp != warmGap[id] {
					if d+gp < 0 {
						return s.coldSimulate(view, opts)
					}
					s.seeds = append(s.seeds, int32(id))
				}
			}
		}
	}

	// A delta touching a large fraction of the graph has an affected
	// cone close to the whole schedule, and the ordinal heap plus the
	// per-seed bookkeeping then cost more than the patch's straight
	// frontier replay (measured: bulk AMP deltas — about half the live
	// tasks — run ~3× slower incrementally). Dense deltas go cold
	// instead: a performance cutoff rather than a soundness fallback,
	// but reported through the same counters so sweep tiers stay
	// honest about which engine produced each row.
	if len(s.seeds)*8 > len(s.byOrd) {
		return s.coldSimulate(view, opts)
	}

	s.gen++
	gen := s.gen
	pq := s.pq[:0]
	touched := s.touched[:0]
	recomputed := 0
	for _, id := range s.seeds {
		s.inQ[id] = gen
		pq = pushOrd(pq, s.ord[id])
	}

	// Propagate in warm-ordinal order. Ordinals only grow along pushes
	// (children and thread successors execute after their cause in the
	// warm order), so each task is processed at most once, after every
	// predecessor that could change has settled.
	for len(pq) > 0 {
		var o32 int32
		o32, pq = popOrd(pq)
		id := int(s.byOrd[o32])
		t := s.tasks[id]

		// Dependency-ready time under the delta, and the warm one for
		// the reorder check below.
		var ds, wds time.Duration
		for _, p := range t.parents {
			pid := p.ID
			if s.state[pid] == gen {
				if e := s.newEnd[pid]; e > ds {
					ds = e
				}
			} else if e := s.warmEnd[pid]; e > ds {
				ds = e
			}
			if e := s.warmEnd[pid]; e > wds {
				wds = e
			}
		}
		start := ds
		if tp := s.thrPred[id]; tp >= 0 {
			e := s.warmEnd[tp]
			if s.state[tp] == gen {
				e = s.newEnd[tp]
			}
			if e > start {
				start = e
			}
		}
		d, gp := warmDur[id], warmGap[id]
		if tp != nil {
			d, gp = tp.Duration(t), tp.Gap(t)
		}
		end := start + d + gp
		s.state[id] = gen
		s.newStart[id], s.newEnd[id] = start, end
		recomputed++
		if so.ctx != nil && recomputed%cancelCheckInterval == 0 {
			if cerr := so.ctx.Err(); cerr != nil {
				s.pq = pq[:0]
				return nil, ContextError(cerr)
			}
		}

		startChanged := start != s.warmStart[id]
		endChanged := end != s.warmEnd[id]
		if !s.forced[s.thrOf[id]] && (startChanged || endChanged || ds != wds) {
			// On a thread whose warm order is not forced by edges, any
			// divergence in this task's readiness or schedule could let
			// the cold scheduler reorder the thread; the incremental
			// schedule would silently assume the warm order. Go cold.
			s.pq = pq[:0]
			return s.coldSimulate(view, opts)
		}
		if startChanged || endChanged {
			touched = append(touched, int32(id))
		}
		if endChanged {
			for _, c := range t.children {
				cid := c.ID
				if s.inQ[cid] != gen {
					s.inQ[cid] = gen
					pq = pushOrd(pq, s.ord[cid])
				}
			}
			if ts := s.thrSucc[id]; ts >= 0 && s.inQ[ts] != gen {
				s.inQ[ts] = gen
				pq = pushOrd(pq, s.ord[ts])
			}
		}
	}
	s.pq = pq[:0]
	s.touched = touched
	s.lastRecomputed = recomputed
	s.stats.Recomputed += recomputed
	return s.fillResult(so.result, tp, touched), nil
}

// fillResult reconstructs the full SimResult from the warm schedule
// plus the recomputed cone, matching a cold simulation of the view bit
// for bit: starts, makespan, per-thread ends, and (for patch views) the
// effective timings.
func (s *IncrementalSim) fillResult(buf *SimResult, tp *Patch, touched []int32) *SimResult {
	res := buf
	if res == nil {
		res = &SimResult{}
	}
	res.Start = resize(res.Start, s.n)
	copy(res.Start, s.warmStart)
	for _, id := range touched {
		res.Start[id] = s.newStart[id]
	}

	// Thread ends: a thread's cold ThreadEnd is its last executed
	// task's end (ends are monotone along each thread given
	// non-negative effective timings, which the seed scan enforced), so
	// only cone tasks that are their thread's warm tail can move it.
	s.thrEndCur = resize(s.thrEndCur, len(s.thrIDs))
	copy(s.thrEndCur, s.warmThreadEnd)
	for _, id := range touched {
		if s.thrSucc[id] < 0 {
			s.thrEndCur[s.thrOf[id]] = s.newEnd[id]
		}
	}
	if res.ThreadEnd == nil {
		res.ThreadEnd = make(map[ThreadID]time.Duration, len(s.thrIDs))
	} else {
		for k := range res.ThreadEnd {
			delete(res.ThreadEnd, k)
		}
	}
	res.Makespan = 0
	for ti, end := range s.thrEndCur {
		res.ThreadEnd[s.thrIDs[ti]] = end
		if end > res.Makespan {
			res.Makespan = end
		}
	}

	// Effective timings: a graph view leaves them empty (Task fields
	// are authoritative, as in Graph.Simulate); a patch view carries
	// them so SimResult.TaskDuration/Finish/CriticalPath read the
	// patched values, as in Patch.Simulate.
	if tp == nil {
		res.dur = res.dur[:0]
		res.gap = res.gap[:0]
		return res
	}
	res.dur = resize(res.dur, s.n)
	res.gap = resize(res.gap, s.n)
	tp.fillTiming(s.base, res.dur, res.gap)
	return res
}

// pushOrd pushes an ordinal onto the min-heap.
func pushOrd(h []int32, v int32) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// popOrd pops the smallest ordinal off the min-heap.
func popOrd(h []int32) (int32, []int32) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l] < h[least] {
			least = l
		}
		if r < n && h[r] < h[least] {
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
