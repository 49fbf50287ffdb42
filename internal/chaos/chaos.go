// Package chaos is the fault-injection toolkit behind the engine's
// robustness suite: corrupted trace generators, adversarial patch
// builders (cycles, dangling edges, negative timings), panicking and
// misbehaving schedulers/optimizations/measurers, a goroutine leak
// checker, and a baseline fingerprint.
//
// The package provides the faults; the chaos test suite feeds them
// through every dispatch tier (incremental/overlay/patch/cold, and a
// patch over a repeated baseline)
// and asserts the fault-tolerance contract the serve subsystem will
// depend on: hostile input produces typed error rows, never a crash, a
// leaked goroutine, or a corrupted shared baseline.
package chaos

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"daydream/internal/core"
	"daydream/internal/trace"
)

// CorruptTrace is one hostile trace-ingestion input and the taxonomy
// sentinel its rejection must match.
type CorruptTrace struct {
	// Name labels the corruption for test output.
	Name string
	// JSON is the hostile input fed to trace.ReadJSON.
	JSON []byte
	// Want is the sentinel the rejection must satisfy via errors.Is.
	Want error
}

// CorruptTraces enumerates the trace corruptions the ingestion layer
// must reject with typed errors: malformed bytes, JSON the parser must
// refuse (too deep, trailing commas, bad escapes, mistyped or
// out-of-range numbers, unterminated keys), non-finite and fractional
// timestamps, negative and overflowing times, duplicate IDs, broken
// correlation pairing, inverted layer spans.
func CorruptTraces() []CorruptTrace {
	deep := strings.Repeat("[", 10000) + strings.Repeat("]", 10000)
	return []CorruptTrace{
		{"garbage", []byte("\x00\xff not json"), trace.ErrMalformed},
		{"truncated", []byte(`{"activities":[{"id":1,"na`), trace.ErrMalformed},
		{"too-deep", []byte(`{"unknown":` + deep + `}`), trace.ErrMalformed},
		{"trailing-comma", []byte(`{"activities":[{"id":1,"kind":5,"stream":7},]}`), trace.ErrMalformed},
		{"bad-escape", []byte(`{"model":"bert\x"}`), trace.ErrMalformed},
		{"string-in-int-field", []byte(`{"activities":[{"id":"1","kind":5,"stream":7}]}`), trace.ErrMalformed},
		{"negative-correlation", []byte(`{"activities":[{"id":1,"kind":1,"thread":1,"correlation":-5}]}`), trace.ErrMalformed},
		{"leading-zero", []byte(`{"activities":[{"id":01,"kind":5,"stream":7}]}`), trace.ErrMalformed},
		{"unterminated-key", []byte(`{"activities":[{"id`), trace.ErrMalformed},
		{"nan-duration", []byte(`{"activities":[{"id":1,"kind":5,"duration":NaN,"stream":7}]}`), trace.ErrMalformed},
		{"inf-start", []byte(`{"activities":[{"id":1,"kind":5,"start":1e999,"stream":7}]}`), trace.ErrMalformed},
		{"fractional-time", []byte(`{"activities":[{"id":1,"kind":5,"duration":1.25,"stream":7}]}`), trace.ErrMalformed},
		{"negative-duration", []byte(`{"activities":[{"id":1,"kind":5,"duration":-4,"stream":7}]}`), trace.ErrNegativeTime},
		{"negative-start", []byte(`{"activities":[{"id":1,"kind":5,"start":-1,"duration":4,"stream":7}]}`), trace.ErrNegativeTime},
		{"overflow-end", []byte(`{"activities":[{"id":1,"kind":5,"start":9223372036854775807,"duration":9223372036854775807,"stream":7}]}`), trace.ErrTimeOverflow},
		{"duplicate-id", []byte(`{"activities":[{"id":2,"kind":0,"thread":1},{"id":2,"kind":0,"thread":1}]}`), trace.ErrDuplicateID},
		{"unpaired-correlation", []byte(`{"activities":[{"id":1,"kind":1,"thread":1,"correlation":5}]}`), trace.ErrBadCorrelation},
		{"correlation-on-comm", []byte(`{"activities":[{"id":1,"kind":8,"channel":"nccl","correlation":5}]}`), trace.ErrBadCorrelation},
		{"inverted-span", []byte(`{"layer_spans":[{"layer":"l","start":9,"end":2}]}`), trace.ErrSpanInverted},
	}
}

// CyclicPatch closes a dependency cycle in the patch's effective view:
// a back edge from some task's child to the task itself, so the
// existing forward edge completes the loop. The baseline stays acyclic
// — only the composite view is poisoned.
func CyclicPatch(p *core.Patch) error {
	for _, t := range p.Tasks() {
		for _, c := range p.Children(t) {
			return p.AddDependency(c, t, core.DepCustom)
		}
	}
	return fmt.Errorf("chaos: graph has no edges to close a cycle over")
}

// NegativeTimingPatch writes a negative effective duration into the
// patch's timing tier.
func NegativeTimingPatch(p *core.Patch) error {
	tasks := p.Tasks()
	if len(tasks) == 0 {
		return fmt.Errorf("chaos: empty graph")
	}
	p.SetDuration(tasks[len(tasks)/2], -time.Microsecond)
	return nil
}

// PanicScheduler panics after picking AfterPicks tasks (zero panics on
// the first pick) — a policy that misbehaves mid-simulation, not at the
// door.
type PanicScheduler struct {
	AfterPicks int
	picks      int
}

// Pick implements core.Scheduler.
func (s *PanicScheduler) Pick(frontier []*core.Task, ctx *core.SchedContext) int {
	if s.picks >= s.AfterPicks {
		panic(fmt.Sprintf("chaos: scheduler panic after %d picks", s.picks))
	}
	s.picks++
	return 0
}

// RoguePicker returns out-of-range frontier indexes — a buggy (not
// panicking) policy the simulator must reject with an error.
type RoguePicker struct{}

// Pick implements core.Scheduler.
func (RoguePicker) Pick(frontier []*core.Task, ctx *core.SchedContext) int {
	return len(frontier) + 3
}

// PanicOpt is an Optimization whose Apply panics.
func PanicOpt() core.Optimization {
	return core.PatchOpt("chaos-panic-opt", core.TimingOnly, func(p *core.Patch) error {
		panic("chaos: optimization panic")
	}, nil)
}

// HalfEditPanicOpt edits real state through the patch before
// panicking, leaving half-written deltas behind — the poisoned-buffer
// case quarantine exists for.
func HalfEditPanicOpt() core.Optimization {
	return core.PatchOpt("chaos-half-edit-panic", core.TimingOnly, func(p *core.Patch) error {
		for i, t := range p.Tasks() {
			if i == 3 {
				panic("chaos: panic mid-edit")
			}
			p.SetDuration(t, p.Duration(t)*3)
		}
		panic("chaos: panic after edit")
	}, nil)
}

// PanicMeasure panics inside the measurement callback.
func PanicMeasure(v core.TaskView, res *core.SimResult) (time.Duration, error) {
	panic("chaos: measure panic")
}

// Fingerprint hashes a graph's observable state — task IDs, names,
// kinds, threads, timings, priorities, dependency edges and sequence
// links — so tests can prove a shared baseline came through a hostile
// sweep bit-identical.
func Fingerprint(g *core.Graph) uint64 {
	h := fnv.New64a()
	for _, t := range g.Tasks() {
		fmt.Fprintf(h, "t%d|%s|%d|%v|%d|%d|%d;", t.ID, t.Name, t.Kind, t.Thread, t.Duration, t.Gap, t.Priority)
		for _, p := range g.Parents(t) {
			fmt.Fprintf(h, "p%d;", p.ID)
		}
		for _, c := range g.Children(t) {
			fmt.Fprintf(h, "c%d;", c.ID)
		}
		if n := g.SeqNext(t); n != nil {
			fmt.Fprintf(h, "n%d;", n.ID)
		}
	}
	return h.Sum64()
}

// Goroutines reports the current goroutine count after giving the
// runtime a moment to retire exiting goroutines; pair a snapshot before
// a hostile Run with a comparison after it to detect leaks.
func Goroutines() int { return runtime.NumGoroutine() }

// SettledGoroutines polls until the goroutine count drops to at most
// want or the attempts run out, and returns the final count — absorbing
// the scheduling delay between a worker's return and its goroutine
// actually exiting.
func SettledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
