package core

import (
	"fmt"
	"strings"
	"time"
)

// OptFootprint classifies how much of the graph an Optimization touches.
// Since every optimization now applies through a single Patch, the
// footprint is a fast-path hint (and display label) rather than a
// dispatch decision: TimingOnly optimizations write only the patch's
// timing tier (and stay eligible for the timing-only simulation fast
// path), Structural ones record structural deltas too.
type OptFootprint uint8

const (
	// TimingOnly marks an optimization that only rewrites per-task
	// durations, gaps or priorities — AMP, kernel profiles, device
	// upgrades, fused optimizers modeled as rescaling.
	TimingOnly OptFootprint = iota
	// Structural marks an optimization that inserts or removes tasks or
	// edges — Distributed, P3, custom graph surgery.
	Structural
)

// String returns "timing-only" or "structural".
func (f OptFootprint) String() string {
	if f == Structural {
		return "structural"
	}
	return "timing-only"
}

// Optimization is a first-class what-if value: a self-describing graph
// transformation that knows its own name, how much of the graph it
// touches, and how to apply itself. The same value drives Compare, a
// sweep Scenario, the experiment grids and the CLI; Stack composes
// several into one.
//
// Apply is the single application surface: the optimization records its
// timing edits and structural deltas (task/edge additions and removals)
// on the Patch, which views the shared immutable baseline copy-on-write
// — no optimization ever needs to clone. Patch.Materialize turns the
// result into a private graph when a caller needs one.
//
// Optional interfaces extend the contract: Measurer for optimizations
// that define their own result metric, SchedulerCarrier for those that
// bring a scheduling policy, and RoundsCarrier for those that model
// several consecutive iterations (P3's steady state).
type Optimization interface {
	// Name labels the optimization in results and CLI output.
	Name() string
	// Footprint reports whether the optimization only rewrites timings
	// or changes graph structure — a fast-path hint and display label.
	Footprint() OptFootprint
	// Apply records the optimization's edits as copy-on-write deltas
	// over the patch's shared baseline: timing edits in the timing
	// tier, structural edits as patch deltas. Apply must not mutate
	// the baseline graph.
	Apply(*Patch) error
}

// Measurer is the optional interface of optimizations that define their
// own result metric. MeasureFunc returns the extractor to run on the
// optimization's simulation, or nil for the default (the simulated
// makespan). P3 uses it to report the steady-state round distance
// instead of the multi-round makespan. The extractor receives the task
// view the simulation ran over — the shared Patch — and must treat it
// as read-only, reading effective timings through the SimResult
// (Finish, TaskDuration) rather than Task fields: the same contract as
// sweep.Scenario.Measure.
type Measurer interface {
	MeasureFunc() func(TaskView, *SimResult) (time.Duration, error)
}

// OptMeasure returns opt's custom metric extractor, or nil when opt
// measures the default makespan.
func OptMeasure(opt Optimization) func(TaskView, *SimResult) (time.Duration, error) {
	if m, ok := opt.(Measurer); ok {
		return m.MeasureFunc()
	}
	return nil
}

// SchedulerCarrier is the optional interface of optimizations whose
// what-if includes a scheduling policy, not just a graph edit — vDNN's
// delayed-prefetch copy-stream ordering, priority-queue communication
// policies. Evaluation (Compare, sweep scenarios) runs the simulation
// under the returned Scheduler unless the caller supplies its own
// WithScheduler, which wins. A nil return means the default
// earliest-start policy. Because schedulers are view-generic, a carried
// policy keeps the scenario clone-free: it runs directly over the
// patch's composite view.
type SchedulerCarrier interface {
	SimScheduler() Scheduler
}

// OptScheduler returns opt's carried scheduling policy, or nil when opt
// simulates under the default policy.
func OptScheduler(opt Optimization) Scheduler {
	if c, ok := opt.(SchedulerCarrier); ok {
		return c.SimScheduler()
	}
	return nil
}

// RoundsCarrier is the optional interface of optimizations that model
// several consecutive training iterations rather than one: Rounds
// reports how many the baseline must chain (P3 gates each round's
// forward pass on the previous round's gradient pulls). Evaluation runs
// such a value over OptBaseline's Repeat-expanded graph; the
// optimization still applies through one Patch over it.
type RoundsCarrier interface {
	Rounds() int
}

// OptRounds returns how many iterations opt's baseline must chain: the
// value's declared Rounds, or 1 when it declares none.
func OptRounds(opt Optimization) int {
	if c, ok := opt.(RoundsCarrier); ok && c.Rounds() > 1 {
		return c.Rounds()
	}
	return 1
}

// OptBaseline returns the graph opt is evaluated on and the
// optimization to apply over it through one Patch: g and opt
// themselves, or, when opt declares n > 1 rounds (OptRounds), a fresh
// g.Repeat(n) that the caller owns; g is never mutated. Every evaluator
// (Compare, sweep scenarios, memory profiles) patches and simulates
// over this graph, so a multi-round what-if takes the same path as
// every other. A Stack with a round-declaring part applies its parts
// in order over graphs that grow rounds where that part sits: every
// part but the last is recorded on a patch over the previous result
// (the round-declaring one over its Repeat) and materialized, so each
// part reads the earlier edits from its baseline and a part before
// the rounds edits every round; the last part is returned to apply.
// Callers still take the metric, scheduler and per-part interfaces
// from opt itself. Declared rounds chain a single-iteration profile: a
// g that already spans several rounds is an error (Repeat refuses it),
// and so is a stack with more than one round-declaring part.
func OptBaseline(g *Graph, opt Optimization) (*Graph, Optimization, error) {
	return OptBaselineWith(g, opt, nil)
}

// OptBaselineWith is OptBaseline taking g's own Repeat from repeat,
// when it is non-nil, instead of building a fresh one: a caller that
// evaluates many round-declaring values over one g (a sweep's grid)
// can then share one repeated graph among them. repeat is asked only
// for g itself, never for a graph a stack materialized on the way, and
// must return g.Repeat(n) or an unmodified graph it built that way.
// Patches over the result never write it, so it may be shared by
// concurrent evaluations.
func OptBaselineWith(g *Graph, opt Optimization, repeat func(g *Graph, n int) (*Graph, error)) (*Graph, Optimization, error) {
	n := OptRounds(opt)
	if n == 1 {
		return g, opt, nil
	}
	if repeat == nil {
		repeat = (*Graph).Repeat
	}
	src, whole := g, opt
	repeated := func(g *Graph) (rep *Graph, err error) {
		if g == src {
			rep, err = repeat(g, n)
		} else {
			rep, err = g.Repeat(n)
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s chains %d iterations: %w", whole.Name(), n, err)
		}
		return rep, nil
	}
	if s, ok := opt.(*stack); ok {
		chained := -1
		for i, part := range s.parts {
			if OptRounds(part) > 1 {
				if chained >= 0 {
					return nil, nil, fmt.Errorf("core: %s stacks %s on %s; each chains its own iterations", opt.Name(), part.Name(), s.parts[chained].Name())
				}
				chained = i
			}
		}
		last := len(s.parts) - 1
		for i, part := range s.parts[:last] {
			var err error
			if i == chained {
				if g, err = repeated(g); err != nil {
					return nil, nil, err
				}
			}
			p := NewPatch(g)
			if err := part.Apply(p); err != nil {
				return nil, nil, err
			}
			if g, err = p.Materialize(); err != nil {
				return nil, nil, err
			}
		}
		if opt = s.parts[last]; last != chained {
			return g, opt, nil
		}
	}
	rep, err := repeated(g)
	if err != nil {
		return nil, nil, err
	}
	return rep, opt, nil
}

// noopMarker is the internal interface of optimizations that are known
// to change nothing (an empty Stack). Consumers use OptIsNoop to take
// the replay fast path: simulate the shared baseline directly, no clone
// and no patch.
type noopMarker interface {
	noopOpt() bool
}

// OptIsNoop reports whether opt is known to leave the graph unchanged
// (nil, or an empty Stack), so evaluation can replay the baseline
// without cloning or patching.
func OptIsNoop(opt Optimization) bool {
	if opt == nil {
		return true
	}
	if m, ok := opt.(noopMarker); ok {
		return m.noopOpt()
	}
	return false
}

// funcOpt is the ready-made Optimization implementation behind PatchOpt.
type funcOpt struct {
	name    string
	fp      OptFootprint
	apply   func(*Patch) error
	measure func(TaskView, *SimResult) (time.Duration, error)
}

func (f *funcOpt) Name() string            { return f.name }
func (f *funcOpt) Footprint() OptFootprint { return f.fp }
func (f *funcOpt) Apply(p *Patch) error    { return f.apply(p) }

func (f *funcOpt) MeasureFunc() func(TaskView, *SimResult) (time.Duration, error) {
	return f.measure
}

// PatchOpt builds an Optimization from its unified patch form — the
// native constructor of the redesigned interface. Timing-only
// optimizations should write only the patch's timing tier (and declare
// TimingOnly); structural ones record task/edge deltas through the
// patch primitives. The optional measure defines the value's own result
// metric (nil keeps the default, the simulated makespan).
func PatchOpt(name string, fp OptFootprint, apply func(*Patch) error, measure func(TaskView, *SimResult) (time.Duration, error)) Optimization {
	return &funcOpt{name: name, fp: fp, apply: apply, measure: measure}
}

// stack composes optimizations in application order.
type stack struct {
	parts []Optimization
}

// Stack composes several optimizations into one Optimization value,
// applied in argument order — the paper's composed what-ifs (AMP +
// FusedAdam as a single question). Nil parts are dropped and nested
// stacks are flattened. The stack's footprint and rounds are the
// maximum of its parts', and every part applies to one shared Patch,
// so any mix of timing-only and structural optimizations evaluates
// clone-free — except a stack with a round-declaring part, whose parts
// but the last OptBaseline applies one after another, materialized. An
// empty Stack is a named no-op: evaluation replays the baseline
// without cloning.
func Stack(parts ...Optimization) Optimization {
	ps := make([]Optimization, 0, len(parts))
	for _, p := range parts {
		if p == nil {
			continue
		}
		if s, ok := p.(*stack); ok {
			ps = append(ps, s.parts...)
			continue
		}
		ps = append(ps, p)
	}
	return &stack{parts: ps}
}

func (s *stack) Name() string {
	if len(s.parts) == 0 {
		return "baseline"
	}
	names := make([]string, len(s.parts))
	for i, p := range s.parts {
		names[i] = p.Name()
	}
	return strings.Join(names, "+")
}

func (s *stack) Footprint() OptFootprint {
	fp := TimingOnly
	for _, p := range s.parts {
		if p.Footprint() > fp {
			fp = p.Footprint()
		}
	}
	return fp
}

func (s *stack) noopOpt() bool { return len(s.parts) == 0 }

// Rounds returns the largest round count any part declares (OptBaseline
// accepts at most one such part).
func (s *stack) Rounds() int {
	n := 1
	for _, p := range s.parts {
		n = max(n, OptRounds(p))
	}
	return n
}

func (s *stack) Apply(p *Patch) error {
	for _, part := range s.parts {
		if err := part.Apply(p); err != nil {
			return err
		}
	}
	return nil
}

// MeasureFunc returns the last part's custom metric, matching the
// intuition that the final transformation decides what the composed
// what-if measures (a stack ending in P3 reports P3's steady-state
// round distance).
func (s *stack) MeasureFunc() func(TaskView, *SimResult) (time.Duration, error) {
	for i := len(s.parts) - 1; i >= 0; i-- {
		if m := OptMeasure(s.parts[i]); m != nil {
			return m
		}
	}
	return nil
}

// StackParts returns the optimizations a Stack-composed value applies,
// in application order — opt itself (as a one-element slice) for a
// non-stack value, nil for nil or a no-op. Cross-cutting consumers use
// it to probe each part for optional interfaces the stack does not
// forward wholesale (internal/mem collects per-part MemMeasurers this
// way). The returned slice is fresh; callers may keep it.
func StackParts(opt Optimization) []Optimization {
	if OptIsNoop(opt) {
		return nil
	}
	if s, ok := opt.(*stack); ok {
		return append([]Optimization(nil), s.parts...)
	}
	return []Optimization{opt}
}

// SimScheduler returns the last part's carried scheduling policy (the
// same last-wins rule as MeasureFunc), or nil when no part carries one.
func (s *stack) SimScheduler() Scheduler {
	for i := len(s.parts) - 1; i >= 0; i-- {
		if sch := OptScheduler(s.parts[i]); sch != nil {
			return sch
		}
	}
	return nil
}
