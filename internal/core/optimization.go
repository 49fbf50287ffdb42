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
// timing tier (and stay eligible for the pure-overlay simulation fast
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
// Two optional interfaces extend the contract: GraphRewriter for
// transformations that must replace the graph (P3's Repeat), and
// Measurer for optimizations that define their own result metric.
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

// GraphRewriter is the optional interface of optimizations that must
// replace the graph instead of patching over it (P3 repeats the
// iteration graph before annotating it).
// ApplyOptimization prefers it over the patch path; the sweep gives
// such optimizations a private clone.
type GraphRewriter interface {
	RewriteGraph(*Graph) (*Graph, error)
}

// graphDemander lets composite optimizations (Stack) report precisely
// whether any part demands a materialized graph; a bare GraphRewriter
// implementation otherwise implies it.
type graphDemander interface {
	needsGraph() bool
}

// OptNeedsGraph reports whether opt demands a materialized private
// graph (a GraphRewriter, or a Stack containing one) instead of the
// clone-free patch path.
func OptNeedsGraph(opt Optimization) bool {
	if d, ok := opt.(graphDemander); ok {
		return d.needsGraph()
	}
	_, ok := opt.(GraphRewriter)
	return ok
}

// Measurer is the optional interface of optimizations that define their
// own result metric. MeasureFunc returns the extractor to run on the
// optimization's simulation, or nil for the default (the simulated
// makespan). P3 uses it to report the steady-state round distance
// instead of the multi-round makespan. The extractor receives the task
// view the simulation ran over — the transformed private graph on the
// rewrite path, the shared Patch on the patch path — and must treat it
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

// ApplyOptimization applies opt to g — through GraphRewriter when it
// replaces the graph, otherwise by recording opt on a Patch over g and
// materializing the patch back into g — and returns the graph to
// simulate. g must be private to the caller (a clone when the baseline
// is shared); rewriters may consume it.
func ApplyOptimization(g *Graph, opt Optimization) (*Graph, error) {
	if rw, ok := opt.(GraphRewriter); ok {
		return rw.RewriteGraph(g)
	}
	p := NewPatch(g)
	if err := opt.Apply(p); err != nil {
		return nil, err
	}
	if err := p.materializeInto(g); err != nil {
		return nil, err
	}
	return g, nil
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

// rewriteOpt is a structural optimization that replaces the graph.
type rewriteOpt struct {
	funcOpt
	rewrite func(*Graph) (*Graph, error)
}

func (r *rewriteOpt) Apply(*Patch) error {
	return fmt.Errorf("core: optimization %q needs a materialized graph; apply it through ApplyOptimization", r.name)
}

func (r *rewriteOpt) RewriteGraph(g *Graph) (*Graph, error) { return r.rewrite(g) }

// RewriteOpt builds a Structural Optimization that replaces the graph
// (e.g. repeating the iteration before annotating it) and optionally
// defines its own result metric; a nil measure keeps the default (the
// simulated makespan).
func RewriteOpt(name string, rewrite func(*Graph) (*Graph, error), measure func(TaskView, *SimResult) (time.Duration, error)) Optimization {
	return &rewriteOpt{
		funcOpt: funcOpt{name: name, fp: Structural, measure: measure},
		rewrite: rewrite,
	}
}

// stack composes optimizations in application order.
type stack struct {
	parts []Optimization
}

// Stack composes several optimizations into one Optimization value,
// applied in argument order — the paper's composed what-ifs (AMP +
// FusedAdam as a single question). Nil parts are dropped and nested
// stacks are flattened. The stack's footprint is the maximum of its
// parts', and a stack applies through one shared Patch, so any mix of
// timing-only and patch-form structural optimizations still evaluates
// clone-free; only a part that demands a materialized graph (a
// GraphRewriter) moves the whole stack to the clone path. An empty
// Stack is a named no-op: evaluation replays the baseline without
// cloning.
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

func (s *stack) needsGraph() bool {
	for _, p := range s.parts {
		if OptNeedsGraph(p) {
			return true
		}
	}
	return false
}

func (s *stack) Apply(p *Patch) error {
	for _, part := range s.parts {
		if OptNeedsGraph(part) {
			return fmt.Errorf("core: stack part %q needs a materialized graph; apply the stack through ApplyOptimization", part.Name())
		}
		if err := part.Apply(p); err != nil {
			return err
		}
	}
	return nil
}

// RewriteGraph applies every part in order, threading the graph through
// rewriting parts, so a stack may mix patch-form and graph-replacing
// optimizations.
func (s *stack) RewriteGraph(g *Graph) (*Graph, error) {
	for _, p := range s.parts {
		var err error
		if g, err = ApplyOptimization(g, p); err != nil {
			return nil, err
		}
	}
	return g, nil
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
