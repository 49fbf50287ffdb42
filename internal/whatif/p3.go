package whatif

import (
	"fmt"
	"time"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/trace"
)

// P3Options configures the priority-based parameter propagation what-if.
type P3Options struct {
	// Topology is the parameter-server cluster.
	Topology comm.Topology
	// SliceBytes is the gradient slice size; zero disables slicing and
	// priorities, which models the plain (FIFO) MXNet parameter server —
	// the "Baseline" of Figure 10.
	SliceBytes int64
	// Rounds is how many consecutive iterations to chain for the
	// steady-state measurement; the default (and minimum) is 2.
	Rounds int
}

// P3Annotate is Algorithm 7's annotation phase (§5.1) as a
// copy-on-write structural patch: it models MXNet parameter-server
// training — optionally with priority-based parameter propagation
// (Jayarajan et al.) — from a single-worker profile. The patch's
// baseline must be that profile Repeat-expanded to the options' Rounds
// (default and minimum 2; core.OptBaseline builds it for OptP3), so
// that a layer's push/pull (issued during backward) gates the *next*
// iteration's forward pass of the same layer:
//
//	bwd(layer, round r) → push slices → pull slices → fwd(layer, round r+1)
//
// With SliceBytes > 0, gradients are cut into slices whose priority
// favors layers needed earliest in the next forward pass; the
// simulator's scheduler resolves channel contention by priority,
// modeling P3's preemptive transfers. Push tasks ride the "ps.send"
// channel and pull tasks "ps.recv" (Algorithm 7's comm.send /
// comm.receive). The push/pull tasks, their priorities and the
// cross-round dependency edges are recorded as patch deltas; the
// baseline is never written.
func P3Annotate(p *core.Patch, opts P3Options) error {
	if opts.Topology.TotalGPUs() <= 1 {
		return fmt.Errorf("whatif: P3 requires a multi-worker topology")
	}
	rep := p.Base()
	if err := requireLayers(rep, "P3"); err != nil {
		return err
	}
	// One index build answers every (layer, round) query; the push/pull
	// tasks recorded below have no layer mapping, and the patch never
	// writes the shared baseline, so the held snapshot stays correct.
	idx := rep.LayerPhaseIndex()
	rounds := p3Rounds(opts)
	if have := idx.Rounds(); have != rounds {
		return fmt.Errorf("whatif: P3Annotate: baseline has %d rounds, want %d (Repeat the profile first)", have, rounds)
	}
	grads := gradientsByIndex(rep)
	layers := sortedLayerIndices(grads)
	bw := opts.Topology.NICBandwidth
	lat := opts.Topology.StepLatency
	send := core.Channel("ps.send")
	recv := core.Channel("ps.recv")
	// Every round's slices of a layer share its push and pull names.
	pushNames, pullNames := make([]string, len(layers)), make([]string, len(layers))
	for i, li := range layers {
		pushNames[i], pullNames[i] = "push "+grads[li].Layer, "pull "+grads[li].Layer
	}
	for r := 0; r < rounds; r++ {
		for i, li := range layers {
			gr := grads[li]
			if gr.Bytes == 0 {
				continue
			}
			u := idx.LastBackwardGPU(li, r)
			if u == nil {
				continue
			}
			var v *core.Task
			if r+1 < rounds {
				v = idx.FirstForwardGPU(li, r+1)
			}
			sliceBytes := gr.Bytes
			priority := 0
			if opts.SliceBytes > 0 {
				sliceBytes = opts.SliceBytes
				// Parameters needed earliest in the next forward
				// pass win the network first.
				priority = -li
			}
			for _, sz := range comm.Slices(gr.Bytes, sliceBytes) {
				push := p.NewTask(pushNames[i], trace.KindComm, send, comm.TransferTime(sz, bw, lat))
				push.Bytes = sz
				push.Priority = priority
				push.Round = r
				pull := p.NewTask(pullNames[i], trace.KindComm, recv, comm.TransferTime(sz, bw, lat))
				pull.Bytes = sz
				pull.Priority = priority
				pull.Round = r
				if err := p.AddDependency(u, push, core.DepComm); err != nil {
					return err
				}
				if err := p.AddDependency(push, pull, core.DepComm); err != nil {
					return err
				}
				if v != nil {
					if err := p.AddDependency(pull, v, core.DepComm); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// p3Rounds is the round count opts asks for: Rounds, at least 2.
func p3Rounds(opts P3Options) int {
	return max(opts.Rounds, 2)
}

// p3Name renders the shared name shape of the parameter-server values.
func p3Name(opts P3Options) string {
	t := opts.Topology
	label := "p3"
	if opts.SliceBytes <= 0 {
		label = "ps-fifo"
	}
	return fmt.Sprintf("%s %s @%.0fGbps", label, t.String(), t.NICBandwidth/comm.Gbps(1))
}

// p3SteadyState measures the steady-state iteration time — the distance
// between the last two rounds' completion frontiers — from the
// annotation patch the simulation ran over. Equivalent to
// RoundSpan(last) − RoundSpan(last−1), computed in one pass.
func p3SteadyState(v core.TaskView, res *core.SimResult) (time.Duration, error) {
	var spans []time.Duration
	for _, t := range v.Tasks() {
		for t.Round >= len(spans) {
			spans = append(spans, 0)
		}
		if f := res.Finish(t); f > spans[t.Round] {
			spans[t.Round] = f
		}
	}
	if len(spans) < 2 {
		return 0, fmt.Errorf("whatif: p3 steady-state measure needs ≥2 rounds, have %d", len(spans))
	}
	return spans[len(spans)-1] - spans[len(spans)-2], nil
}

// OptP3 returns the parameter-server prediction (Algorithm 7) as an
// Optimization value over a single-iteration profile. It declares its
// rounds (core.RoundsCarrier), so every evaluator patches it over
// core.OptBaseline's Repeat-expanded copy of the profile, and it
// carries its own metric — the steady-state round distance rather than
// the multi-round makespan. SliceBytes follows P3Options: positive
// enables P3's slicing and priorities, zero models the plain FIFO
// parameter server. Evaluated over an already-repeated baseline it
// fails, since the rounds would multiply.
func OptP3(opts P3Options) core.Optimization {
	opts.Rounds = p3Rounds(opts)
	return p3Opt{opts}
}

// p3Opt is OptP3's value: a structural patch with a declared round
// count and its own metric.
type p3Opt struct{ opts P3Options }

func (o p3Opt) Name() string                 { return p3Name(o.opts) }
func (o p3Opt) Footprint() core.OptFootprint { return core.Structural }
func (o p3Opt) Apply(p *core.Patch) error    { return P3Annotate(p, o.opts) }
func (o p3Opt) Rounds() int                  { return o.opts.Rounds }

func (o p3Opt) MeasureFunc() func(core.TaskView, *core.SimResult) (time.Duration, error) {
	return p3SteadyState
}
