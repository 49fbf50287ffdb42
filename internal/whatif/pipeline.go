package whatif

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
	"weak"

	"daydream/internal/core"
	"daydream/internal/trace"
)

// Pipeline parallelism (PipeDream / GPipe family): partition the model's
// layers into contiguous stages on distinct accelerators, stream
// microbatches through the stage pipeline with activation/gradient
// transfers on inter-stage links, and order each stage's ready work with
// a carried Scheduler — 1F1B (PipeDream's one-forward-one-backward
// steady state) or GPipe's fill-then-drain. The what-if predicts the
// per-iteration makespan of the partitioned execution from the same
// single-GPU profile every other model reads, so "best split under a
// budget" is a sweep over PipelineOptions — PipeDream's planner as a
// what-if grid (see exp's pipegrid).

// PipelineOptions configures the pipeline-parallel what-if.
type PipelineOptions struct {
	// Stages is the number of pipeline stages (distinct accelerators);
	// zero selects 2. Must not exceed the model's layer count.
	Stages int
	// Microbatches is how many microbatches the iteration's batch is
	// split into; zero selects 4. Per-microbatch compute is the stage's
	// profiled compute divided by this count.
	Microbatches int
	// Schedule picks the microbatch ordering policy: "1f1b" (default,
	// PipeDream's one-forward-one-backward) or "gpipe" (fill then
	// drain).
	Schedule string
	// LinkGbps is the inter-stage interconnect bandwidth in Gbit/s;
	// zero selects 100 (NVLink-class).
	LinkGbps float64
}

func (o *PipelineOptions) defaults() {
	if o.Stages == 0 {
		o.Stages = 2
	}
	if o.Microbatches == 0 {
		o.Microbatches = 4
	}
	if o.Schedule == "" {
		o.Schedule = Schedule1F1B
	}
	if o.LinkGbps == 0 {
		o.LinkGbps = 100
	}
}

// Pipeline schedule names.
const (
	Schedule1F1B  = "1f1b"
	ScheduleGPipe = "gpipe"
)

// Pipeline task-name prefixes, for reports and traces.
const (
	pipeFwdPrefix  = "pipe_fwd"
	pipeBwdPrefix  = "pipe_bwd"
	pipeActPrefix  = "pipe_xfer_act"
	pipeGradPrefix = "pipe_xfer_grad"
	pipeWUPrefix   = "pipe_update"
)

// Pipeline task tags (core.Task.Tag), which PipelineScheduler classifies
// the skeleton by: forward compute with the activation transfers that
// feed it, and backward compute with the gradient transfers. Weight
// updates stay untagged.
const (
	pipeTagFwd uint8 = 1 + iota
	pipeTagBwd
)

// pipeStageStream0 numbers the per-stage GPU streams, far from any
// profiled stream number so the stage threads are always fresh.
const pipeStageStream0 = 900

// PipelinePatch applies the pipeline-parallel what-if to a patch over
// the profiled baseline: the single-GPU execution is superseded (every
// baseline task's effective duration and gap drop to zero — removal
// without the O(edges) reconnection cascade, the FusedAdam idiom), and
// a per-(stage, microbatch) skeleton is appended round-major — forward
// and backward compute on per-stage streams, activation/gradient
// transfers on per-boundary links, one weight-update task per stage.
// Microbatch index rides Task.Round, so the appendix is a round-major
// layout and a pipeline sweep can run under WithRoundWindow in
// O(window) memory. Simulating the patch is bit-identical to
// materializing it and simulating the clone, under either schedule.
//
// The profiled workload is read through the patch's effective timings,
// so stacking after a timing what-if partitions the scaled model. The
// skeleton shares no thread and no edge with the baseline, so unless an
// earlier part of a stack edited the baseline's structure, a simulation
// under the carried scheduler runs only the skeleton (see
// core.Patch.SupersedeBaseline).
func PipelinePatch(p *core.Patch, opts PipelineOptions) error {
	g := p.Base()
	opts.defaults()
	if err := requireLayers(g, "Pipeline"); err != nil {
		return err
	}
	if opts.Stages < 2 {
		return fmt.Errorf("whatif: Pipeline: need at least 2 stages, got %d", opts.Stages)
	}
	if opts.Microbatches < 1 {
		return fmt.Errorf("whatif: Pipeline: need at least 1 microbatch, got %d", opts.Microbatches)
	}
	if opts.Schedule != Schedule1F1B && opts.Schedule != ScheduleGPipe {
		return fmt.Errorf("whatif: Pipeline: unknown schedule %q (want %s or %s)", opts.Schedule, Schedule1F1B, ScheduleGPipe)
	}
	grads := gradientsByIndex(g)
	layers := sortedLayerIndices(grads)
	if len(layers) == 0 {
		return fmt.Errorf("whatif: Pipeline: model has no gradient metadata")
	}
	if opts.Stages > len(layers) {
		return fmt.Errorf("whatif: Pipeline: %d stages exceed the model's %d layers", opts.Stages, len(layers))
	}

	// Per-layer forward/backward GPU compute and the total weight-update
	// time, read through the patch's effective durations (pre-zeroing).
	// Both sums are indexed by layer index minus lo, the lowest one. A
	// patch with no edits yet (an empty timing delta, no structure)
	// reads the baseline's memoized sums; a stack that edited first
	// (amp+pipeline) scans its effective view.
	lo := layers[0]
	span := layerSpan(layers) - lo
	fwd := make([]time.Duration, span)
	bwd := make([]time.Duration, span)
	var wuTotal time.Duration
	if cone, _ := p.EstimateConeSize(); cone == 0 && !p.Structural() && lo >= 0 {
		sums := baselineSums(g.LayerPhaseIndex())
		if lo < len(sums.fwd) {
			copy(fwd, sums.fwd[lo:])
			copy(bwd, sums.bwd[lo:])
		}
		wuTotal = sums.wu
	} else {
		for _, t := range p.Tasks() {
			if !t.OnGPU() || !t.HasLayer {
				continue
			}
			i := t.LayerIndex - lo
			if t.Phase != trace.WeightUpdate && (i < 0 || i >= span) {
				continue // no gradient metadata: no stage holds the layer
			}
			switch t.Phase {
			case trace.Forward:
				fwd[i] += p.Duration(t)
			case trace.Backward:
				bwd[i] += p.Duration(t)
			case trace.WeightUpdate:
				wuTotal += p.Duration(t)
			}
		}
	}

	parts := partitionLayers(layers, lo, fwd, bwd, opts.Stages)

	p.SupersedeBaseline()

	// Per-stage durations and boundary transfer times.
	S, M := opts.Stages, opts.Microbatches
	bytesPerSec := opts.LinkGbps * 1e9 / 8
	stageFwd := make([]time.Duration, S)
	stageBwd := make([]time.Duration, S)
	stageWU := make([]time.Duration, S)
	xfer := make([]time.Duration, S-1) // boundary s → s+1, per microbatch
	var totalParam int64
	stageParam := make([]int64, S)
	for s, part := range parts {
		for _, li := range part {
			stageFwd[s] += fwd[li-lo]
			stageBwd[s] += bwd[li-lo]
			stageParam[s] += grads[li].Bytes
			totalParam += grads[li].Bytes
		}
	}
	for s := 0; s < S-1; s++ {
		last := parts[s][len(parts[s])-1]
		bytes := grads[last].ActBytes
		if bytes == 0 {
			bytes = grads[last].Bytes
		}
		xfer[s] = time.Duration(float64(bytes) / float64(M) / bytesPerSec * float64(time.Second))
	}
	for s := 0; s < S; s++ {
		if totalParam > 0 {
			stageWU[s] = time.Duration(float64(wuTotal) * float64(stageParam[s]) / float64(totalParam))
		}
	}

	// Round-major skeleton: every task of microbatch m carries Round m,
	// in ascending ID order, so the appendix satisfies the windowed
	// simulator's round-major contract.
	fwdTasks := make([][]*core.Task, S)
	bwdTasks := make([][]*core.Task, S)
	for s := range fwdTasks {
		fwdTasks[s] = make([]*core.Task, M)
		bwdTasks[s] = make([]*core.Task, M)
	}
	stageThread := func(s int) core.ThreadID { return core.Stream(pipeStageStream0 + s) }
	linkThread := func(s int) core.ThreadID { return core.Channel(fmt.Sprintf("pipe.link%d", s)) }
	for m := 0; m < M; m++ {
		for s := 0; s < S; s++ {
			f := p.NewTask(fmt.Sprintf("%s s%d m%d", pipeFwdPrefix, s, m), trace.KindKernel, stageThread(s), stageFwd[s]/time.Duration(M))
			f.Round, f.Tag = m, pipeTagFwd
			fwdTasks[s][m] = f
			// 1F1B admission control: stage s stashes at most S−s
			// microbatches of activations, so its m-th forward waits for
			// the (m−(S−s))-th backward — the dependency that caps
			// in-flight microbatches (and the windowed simulation's
			// retained span) at the pipeline depth. GPipe has no cap:
			// it fills with every forward, then drains.
			if inflight := S - s; opts.Schedule != ScheduleGPipe && m >= inflight {
				if err := p.AddDependency(bwdTasks[s][m-inflight], f, core.DepCustom); err != nil {
					return err
				}
			}
			if s > 0 {
				// Activation transfer s-1 → s released the forward.
				a := p.NewTask(fmt.Sprintf("%s s%d m%d", pipeActPrefix, s-1, m), trace.KindComm, linkThread(s-1), xfer[s-1])
				a.Round, a.Tag = m, pipeTagFwd
				if err := addDeps(p, fwdTasks[s-1][m], a, f); err != nil {
					return err
				}
			}
		}
		for s := S - 1; s >= 0; s-- {
			b := p.NewTask(fmt.Sprintf("%s s%d m%d", pipeBwdPrefix, s, m), trace.KindKernel, stageThread(s), stageBwd[s]/time.Duration(M))
			b.Round, b.Tag = m, pipeTagBwd
			bwdTasks[s][m] = b
			// The stage's own forward stashed this microbatch's
			// activations …
			if err := p.AddDependency(fwdTasks[s][m], b, core.DepCustom); err != nil {
				return err
			}
			// … and (below the last stage) the next stage's backward
			// sends the output gradient across the link.
			if s < S-1 {
				gt := p.NewTask(fmt.Sprintf("%s s%d m%d", pipeGradPrefix, s, m), trace.KindComm, linkThread(s), xfer[s])
				gt.Round, gt.Tag = m, pipeTagBwd
				if err := addDeps(p, bwdTasks[s+1][m], gt, b); err != nil {
					return err
				}
			}
		}
	}
	lastRound := M - 1
	for s := 0; s < S; s++ {
		u := p.NewTask(fmt.Sprintf("%s s%d", pipeWUPrefix, s), trace.KindKernel, stageThread(s), stageWU[s])
		u.Round = lastRound
		for m := 0; m < M; m++ {
			if err := p.AddDependency(bwdTasks[s][m], u, core.DepCustom); err != nil {
				return err
			}
		}
	}
	return nil
}

// layerSums is a baseline's per-layer GPU compute: forward and backward
// sums by layer index over [0, Layers()), and the weight-update total.
type layerSums struct {
	fwd, bwd []time.Duration
	wu       time.Duration
}

// pipeSums memoizes layerSums per baseline, keyed weakly by the graph's
// layer index: a structural edit or MapLayers rebuilds the index and so
// misses the memo, and an entry goes when its index is collected. Like
// every view's compiled baseline, the sums do not see task durations
// written in place.
var pipeSums sync.Map // weak.Pointer[core.LayerPhaseIndex] → *layerSums

// baselineSums returns the memoized layerSums of the index's graph,
// summing its GPU tasks on first use.
func baselineSums(ix *core.LayerPhaseIndex) *layerSums {
	key := weak.Make(ix)
	if v, ok := pipeSums.Load(key); ok {
		return v.(*layerSums)
	}
	s := &layerSums{fwd: make([]time.Duration, ix.Layers()), bwd: make([]time.Duration, ix.Layers())}
	for _, t := range ix.GPUTasks() {
		if !t.HasLayer {
			continue
		}
		switch {
		case t.Phase == trace.WeightUpdate:
			s.wu += t.Duration
		case t.LayerIndex < 0:
		case t.Phase == trace.Forward:
			s.fwd[t.LayerIndex] += t.Duration
		case t.Phase == trace.Backward:
			s.bwd[t.LayerIndex] += t.Duration
		}
	}
	if v, loaded := pipeSums.LoadOrStore(key, s); loaded {
		return v.(*layerSums)
	}
	runtime.AddCleanup(ix, func(k weak.Pointer[core.LayerPhaseIndex]) { pipeSums.Delete(k) }, key)
	return s
}

// addDeps wires from → mid → to.
func addDeps(p *core.Patch, from, mid, to *core.Task) error {
	if err := p.AddDependency(from, mid, core.DepComm); err != nil {
		return err
	}
	return p.AddDependency(mid, to, core.DepComm)
}

// partitionLayers splits the ascending layer list into stages contiguous
// chunks, balancing per-stage forward+backward compute with a
// deterministic greedy fill: each stage takes layers until it reaches
// the average of the remaining weight, always leaving one layer per
// remaining stage.
func partitionLayers(layers []int, lo int, fwd, bwd []time.Duration, stages int) [][]int {
	weight := func(li int) time.Duration { return fwd[li-lo] + bwd[li-lo] }
	var total time.Duration
	for _, li := range layers {
		total += weight(li)
	}
	parts := make([][]int, 0, stages)
	i := 0
	remaining := total
	for s := 0; s < stages; s++ {
		stagesLeft := stages - s
		target := remaining / time.Duration(stagesLeft)
		var got time.Duration
		start := i
		for i < len(layers) {
			mustLeave := stagesLeft - 1
			if len(layers)-i <= mustLeave {
				break
			}
			if got >= target && i > start {
				break
			}
			got += weight(layers[i])
			i++
		}
		parts = append(parts, layers[start:i])
		remaining -= got
	}
	return parts
}

// PipelineScheduler is the carried microbatch-ordering policy: among the
// frontier tasks ready earliest, pipeline tasks of the preferred phase
// win (backward for 1F1B, forward for GPipe), then lower microbatch
// (Round), then higher effective priority, then lower task ID. It is a
// core.KeyedScheduler: the phase rank and the microbatch form a static
// class read from the task's Tag and Round, so the simulator runs it on
// the heap loop, over a structural Patch exactly as over a materialized
// graph. Transfers rank with the compute phase they serve, so a link
// never starves the preferred direction.
type PipelineScheduler struct {
	// PreferBackward picks 1F1B's drain-first ordering; false is
	// GPipe's fill-first.
	PreferBackward bool
}

// pipeRank classifies a task for the policy by its tag: 0 = preferred
// pipeline phase, 1 = other pipeline phase, 2 = everything else.
func (s PipelineScheduler) pipeRank(t *core.Task) int {
	fwdish, bwdish := t.Tag == pipeTagFwd, t.Tag == pipeTagBwd
	switch {
	case s.PreferBackward && bwdish, !s.PreferBackward && fwdish:
		return 0
	case fwdish || bwdish:
		return 1
	}
	return 2
}

// pipeRoundBits is how many low class bits hold the microbatch.
const pipeRoundBits = 29

// Class implements core.KeyedScheduler: the rank above the microbatch.
// A Round the packing cannot hold returns -1, which sends the run to
// Pick.
func (s PipelineScheduler) Class(t *core.Task) int {
	if t.Round < 0 || t.Round >= 1<<pipeRoundBits {
		return -1
	}
	return s.pipeRank(t)<<pipeRoundBits | t.Round
}

// Pick implements core.Scheduler with the order Class keys.
func (s PipelineScheduler) Pick(frontier []*core.Task, ctx *core.SchedContext) int {
	best := -1
	var bestT time.Duration
	var bestRank, bestRound, bestPrio int
	for i, t := range frontier {
		et := ctx.EffStart(t)
		rank := s.pipeRank(t)
		prio := ctx.Priority(t)
		better := false
		switch {
		case best < 0:
			better = true
		case et != bestT:
			better = et < bestT
		case rank != bestRank:
			better = rank < bestRank
		case t.Round != bestRound:
			better = t.Round < bestRound
		case prio != bestPrio:
			better = prio > bestPrio
		default:
			better = t.ID < frontier[best].ID
		}
		if better {
			best, bestT, bestRank, bestRound, bestPrio = i, et, rank, t.Round, prio
		}
	}
	return best
}

// pipelineOpt is OptPipeline's value: a structural patch optimization
// carrying its microbatch-ordering policy.
type pipelineOpt struct{ opts PipelineOptions }

// OptPipeline returns the pipeline-parallel what-if as an Optimization
// value: PipelinePatch's stage skeleton applies as clone-free patch
// deltas, and the value carries the 1F1B or GPipe PipelineScheduler
// through core.SchedulerCarrier, so Compare, the sweep tiers and serve
// evaluate it without cloning the profiled graph.
func OptPipeline(opts PipelineOptions) core.Optimization {
	opts.defaults()
	return &pipelineOpt{opts: opts}
}

// Name implements core.Optimization; the stage/microbatch parameters
// ride the name ("pipeline:4x8:gpipe") so sweep rows and caches key on
// the full configuration.
func (p *pipelineOpt) Name() string {
	name := fmt.Sprintf("pipeline:%dx%d", p.opts.Stages, p.opts.Microbatches)
	if p.opts.Schedule != Schedule1F1B {
		name += ":" + p.opts.Schedule
	}
	return name
}

// Footprint implements core.Optimization.
func (p *pipelineOpt) Footprint() core.OptFootprint { return core.Structural }

// Apply implements core.Optimization.
func (p *pipelineOpt) Apply(patch *core.Patch) error { return PipelinePatch(patch, p.opts) }

// SimScheduler implements core.SchedulerCarrier.
func (p *pipelineOpt) SimScheduler() core.Scheduler {
	return PipelineScheduler{PreferBackward: p.opts.Schedule != ScheduleGPipe}
}

// ParsePipelineArg parses the stack-expression parameter form
// "SxM[:schedule]" ("4x8", "2x4:gpipe") into options.
func ParsePipelineArg(arg string) (PipelineOptions, error) {
	var opts PipelineOptions
	rest := arg
	if dims, sched, ok := strings.Cut(arg, ":"); ok {
		rest = dims
		opts.Schedule = sched
	}
	var s, m int
	if _, err := fmt.Sscanf(rest, "%dx%d", &s, &m); err != nil || s <= 0 || m <= 0 {
		return opts, fmt.Errorf("whatif: bad pipeline parameter %q (want stagesxmicrobatches[:schedule], e.g. pipeline:4x8:gpipe)", arg)
	}
	opts.Stages, opts.Microbatches = s, m
	if opts.Schedule != "" && opts.Schedule != Schedule1F1B && opts.Schedule != ScheduleGPipe {
		return opts, fmt.Errorf("whatif: bad pipeline schedule %q (want %s or %s)", opts.Schedule, Schedule1F1B, ScheduleGPipe)
	}
	return opts, nil
}
