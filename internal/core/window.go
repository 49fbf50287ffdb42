package core

import (
	"errors"
	"fmt"
	"time"
)

// Round-windowed simulation: on a round-major graph (Repeat, or a Patch
// whose appendix is laid out round-major — task IDs non-decreasing in
// Task.Round), WithRoundWindow(w) retires every round that falls more
// than w rounds behind the completion frontier into a RoundSummary and
// keeps full per-task starts only for a sliding window, so simulating
// thousands of rounds costs O(window) result memory instead of
// O(rounds). The retained window is bit-identical to the unwindowed
// result; see doc.go "The round window" for the full contract.

// ErrNotRoundMajor marks a windowed simulation over a view whose task
// IDs are not non-decreasing in Task.Round — the layout the sliding
// window's ring storage requires. Repeat graphs and round-major patch
// appendices satisfy it by construction.
var ErrNotRoundMajor = errors.New("core: windowed simulation requires a round-major task layout (IDs non-decreasing in Round)")

// ErrWindowedResult marks an operation that needs the full start array
// of an unwindowed result — internal/mem's post-pass, incremental warm
// builds — applied to a windowed one. The documented fallback is to
// re-simulate without WithRoundWindow.
var ErrWindowedResult = errors.New("core: result is round-windowed (full per-task starts were retired); re-simulate without WithRoundWindow")

// WithRoundWindow enables round-windowed simulation: rounds more than w
// rounds behind the completion frontier are retired into per-round
// summaries (RoundSummary) and their per-task starts evicted; the last
// w completed rounds plus every round still executing keep full starts,
// readable through StartOf/Finish exactly as in an unwindowed run. The
// view must be round-major (ErrNotRoundMajor otherwise). w <= 0 means
// no windowing. Windowed results report Windowed() == true, expose an
// empty Start field, and are rejected by consumers that need the full
// array (ErrWindowedResult).
func WithRoundWindow(w int) SimOption {
	return func(o *simOptions) { o.window = w }
}

// RoundSummary is the retained record of a retired round.
type RoundSummary struct {
	// Round is the round (Repeat copy / microbatch) index.
	Round int
	// End is the completion time of the round's last task.
	End time.Duration
	// Span is End minus the previous round's End — the round's
	// makespan contribution, which converges to the steady-state
	// iteration time on a repeated graph.
	Span time.Duration
	// ThreadEnd maps each thread that executed one of the round's tasks
	// to the end time of its last such task.
	ThreadEnd map[ThreadID]time.Duration
}

// windowState is the sliding-window storage of a windowed simulation.
// Per-task starts (and, for patch runs, effective timings) live
// in rings indexed by ID mod capacity; the retained ID range is
// contiguous because the layout is round-major, so distinct retained
// IDs never share a slot as long as the range fits the ring (record
// grows it when a straggler round keeps the range wide).
type windowState struct {
	w      int // rounds kept behind the completion frontier
	rounds int
	lo, hi []int // per-round ID range [lo, hi)
	left   []int // per-round unexecuted task counts
	// Per-round aggregates collected during execution; O(rounds ×
	// threads), the summary data the window is allowed to keep.
	rEnd     []time.Duration
	rThreads []map[ThreadID]time.Duration
	done     int // rounds [0, done) are fully executed (contiguous prefix)
	retired  int // rounds [0, retired) are summarized and evicted
	maxID    int // highest recorded task ID
	peak     int // widest retained ID span observed (occupancy stat)

	ring             []time.Duration // start times, slot = ID % len(ring)
	durRing, gapRing []time.Duration // effective timings (nil for Graph runs)

	summaries []RoundSummary
}

// newWindowState scans the compiled form once to build the per-round
// layout and sizes the rings for w retained rounds plus one executing
// round. A view whose IDs are not non-decreasing in Round is rejected
// with ErrNotRoundMajor. Forms with effective timings (every view but a
// *Graph) get effective-timing rings too.
func newWindowState(f *simForm, w int) (*windowState, error) {
	ws := &windowState{w: w, maxID: -1}
	prev := 0
	for _, t := range f.tasks {
		if t == nil {
			continue
		}
		r := t.Round
		if r < prev || r < 0 {
			return nil, fmt.Errorf("%w: task #%d %q has round %d after round %d", ErrNotRoundMajor, t.ID, t.Name, r, prev)
		}
		for ws.rounds <= r {
			// New round (empty rounds between two populated ones get
			// zero-width ranges at the boundary).
			ws.lo = append(ws.lo, t.ID)
			ws.hi = append(ws.hi, t.ID)
			ws.left = append(ws.left, 0)
			ws.rounds++
		}
		if t.ID+1 > ws.hi[r] {
			ws.hi[r] = t.ID + 1
		}
		ws.left[r]++
		prev = r
	}
	if ws.rounds == 0 {
		ws.rounds = 1
		ws.lo, ws.hi, ws.left = []int{0}, []int{0}, []int{0}
	}
	ws.rEnd = make([]time.Duration, ws.rounds)
	ws.rThreads = make([]map[ThreadID]time.Duration, ws.rounds)
	// Ring capacity: the widest ID span of any round together with the w
	// rounds before it. Out-of-order completion beyond that grows the
	// ring at record time.
	cap := 1
	for r := 0; r < ws.rounds; r++ {
		base := r - w
		if base < 0 {
			base = 0
		}
		if span := ws.hi[r] - ws.lo[base]; span > cap {
			cap = span
		}
	}
	ws.ring = make([]time.Duration, cap)
	if f.dur != nil {
		ws.durRing = make([]time.Duration, cap)
		ws.gapRing = make([]time.Duration, cap)
	}
	// Empty leading rounds are complete before the first dispatch.
	for ws.done < ws.rounds && ws.left[ws.done] == 0 {
		ws.done++
	}
	return ws, nil
}

// record commits one executed task: its start (and effective timings)
// into the window rings, its finish and end into the round aggregates,
// and — when it completes the contiguous-done prefix — retires rounds
// that fell behind the window. The round's End aggregates finishes
// (start + duration, matching SimResult.Finish and RoundSpan); its
// ThreadEnd aggregates gap-inclusive ends (matching SimResult.ThreadEnd).
func (ws *windowState) record(t *Task, start, dur, gap time.Duration) {
	if t.ID-ws.lo[ws.retired] >= len(ws.ring) {
		ws.grow(t.ID)
	}
	slot := t.ID % len(ws.ring)
	ws.ring[slot] = start
	if ws.durRing != nil {
		ws.durRing[slot] = dur
		ws.gapRing[slot] = gap
	}
	if t.ID > ws.maxID {
		ws.maxID = t.ID
	}
	if span := ws.maxID + 1 - ws.lo[ws.retired]; span > ws.peak {
		ws.peak = span
	}
	r := t.Round
	finish, end := start+dur, start+dur+gap
	if finish > ws.rEnd[r] {
		ws.rEnd[r] = finish
	}
	m := ws.rThreads[r]
	if m == nil {
		m = make(map[ThreadID]time.Duration, 4)
		ws.rThreads[r] = m
	}
	if end > m[t.Thread] {
		m[t.Thread] = end
	}
	ws.left[r]--
	if r == ws.done && ws.left[r] == 0 {
		for ws.done < ws.rounds && ws.left[ws.done] == 0 {
			ws.done++
		}
		for ws.retired < ws.done-ws.w {
			ws.retire()
		}
	}
}

// retire summarizes and evicts the oldest retained round.
func (ws *windowState) retire() {
	r := ws.retired
	var prev time.Duration
	if r > 0 {
		prev = ws.summaries[r-1].End
	}
	ws.summaries = append(ws.summaries, RoundSummary{
		Round:     r,
		End:       ws.rEnd[r],
		Span:      ws.rEnd[r] - prev,
		ThreadEnd: ws.rThreads[r],
	})
	ws.rThreads[r] = nil
	ws.retired++
}

// grow widens the rings when out-of-order round completion keeps the
// retained ID span wider than planned — graceful degradation toward
// the unwindowed footprint, never corruption.
func (ws *windowState) grow(id int) {
	need := id + 1 - ws.lo[ws.retired]
	newCap := 2 * len(ws.ring)
	if newCap < need {
		newCap = need
	}
	replace := func(old []time.Duration) []time.Duration {
		fresh := make([]time.Duration, newCap)
		for i := ws.lo[ws.retired]; i <= ws.maxID; i++ {
			fresh[i%newCap] = old[i%len(old)]
		}
		return fresh
	}
	ws.ring = replace(ws.ring)
	if ws.durRing != nil {
		ws.durRing = replace(ws.durRing)
		ws.gapRing = replace(ws.gapRing)
	}
}

// startOf returns the windowed start of a task ID, or false when its
// round has been retired.
func (ws *windowState) startOf(id int) (time.Duration, bool) {
	if id < ws.lo[ws.retired] {
		return 0, false
	}
	return ws.ring[id%len(ws.ring)], true
}

// retiredPanic aborts a full-detail read of a retired task with a
// message that names the window contract.
func (ws *windowState) retiredPanic(what string, t *Task) {
	panic(fmt.Sprintf("core: %s(#%d %q): round %d was retired from the simulation window (%d rounds retired; retained IDs start at %d) — read retired rounds through Summaries/RoundSpan or re-simulate without WithRoundWindow",
		what, t.ID, t.Name, t.Round, ws.retired, ws.lo[ws.retired]))
}

// Windowed reports whether the result came from a round-windowed
// simulation (WithRoundWindow): Start is empty and per-task detail is
// only retained for the sliding window.
func (r *SimResult) Windowed() bool { return r.win != nil }

// RetiredRounds returns how many rounds were retired into summaries
// (zero for unwindowed results).
func (r *SimResult) RetiredRounds() int {
	if r.win == nil {
		return 0
	}
	return r.win.retired
}

// Summaries returns the retired rounds' summaries in round order. The
// slice is owned by the result; callers must not mutate it.
func (r *SimResult) Summaries() []RoundSummary {
	if r.win == nil {
		return nil
	}
	return r.win.summaries
}

// WindowOccupancy returns the widest per-task span the window actually
// retained at any point of a windowed simulation (tasks, not rounds) —
// the O(window) footprint the mode trades the full start array for.
// Zero for unwindowed results.
func (r *SimResult) WindowOccupancy() int {
	if r.win == nil {
		return 0
	}
	return r.win.peak
}

// StartOf returns a task's simulated start and whether it is available:
// always for unwindowed results, and for tasks within the retained
// window of windowed ones (false when the task's round was retired).
func (r *SimResult) StartOf(t *Task) (time.Duration, bool) {
	if r.win == nil {
		return r.Start[t.ID], true
	}
	return r.win.startOf(t.ID)
}
