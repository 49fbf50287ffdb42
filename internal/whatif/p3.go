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

// P3 models MXNet parameter-server training — optionally with
// priority-based parameter propagation (Jayarajan et al.) — from a
// single-worker profile, per the paper's §5.1 and Algorithm 7. The
// baseline iteration graph is replicated so that a layer's push/pull
// (issued during backward) gates the *next* iteration's forward pass of
// the same layer:
//
//	bwd(layer, round r) → push slices → pull slices → fwd(layer, round r+1)
//
// With SliceBytes > 0, gradients are cut into slices whose priority favors
// layers needed earliest in the next forward pass; the simulator's
// scheduler resolves channel contention by priority, modeling P3's
// preemptive transfers. Push tasks ride the "ps.send" channel and pull
// tasks "ps.recv" (Algorithm 7's comm.send / comm.receive).
//
// P3 returns the repeated, annotated graph (a rewrite); OptP3 reads its
// steady-state iteration time. P3Annotate is the clone-free form for
// grids that share one pre-repeated baseline across scenarios.
func P3(g *core.Graph, opts P3Options) (*core.Graph, error) {
	if opts.Topology.TotalGPUs() <= 1 {
		return nil, fmt.Errorf("whatif: P3 requires a multi-worker topology")
	}
	if err := requireLayers(g, "P3"); err != nil {
		return nil, err
	}
	rounds := opts.Rounds
	if rounds < 2 {
		rounds = 2
	}
	rep, err := g.Repeat(rounds)
	if err != nil {
		return nil, err
	}
	if err := p3AnnotateInto(rep, rep, opts, rounds); err != nil {
		return nil, err
	}
	return rep, nil
}

// P3Annotate is Algorithm 7's annotation phase as a copy-on-write
// structural patch over an already-repeated baseline: the push/pull
// tasks, their channel sequences, priorities and cross-round dependency
// edges are recorded as deltas instead of being inserted into a private
// copy. The patch's baseline must be a Repeat-expanded graph with at
// least two rounds (P3's Rounds default); a sweep grid repeats the
// single-worker profile once and shares the result across every
// bandwidth point, so no scenario clones. Simulating the patch is
// bit-identical to P3's rewrite form on the same rounds.
func P3Annotate(p *core.Patch, opts P3Options) error {
	if opts.Topology.TotalGPUs() <= 1 {
		return fmt.Errorf("whatif: P3 requires a multi-worker topology")
	}
	rep := p.Base()
	if err := requireLayers(rep, "P3"); err != nil {
		return err
	}
	rounds := opts.Rounds
	if rounds < 2 {
		rounds = 2
	}
	if have := rep.LayerPhaseIndex().Rounds(); have != rounds {
		return fmt.Errorf("whatif: P3Annotate: baseline has %d rounds, want %d (Repeat the profile first)", have, rounds)
	}
	return p3AnnotateInto(rep, p, opts, rounds)
}

// p3AnnotateInto reads the repeated baseline rep and emits Algorithm
// 7's push/pull annotation through ed (the repeated graph itself, or a
// patch over it).
func p3AnnotateInto(rep *core.Graph, ed graphEditor, opts P3Options, rounds int) error {
	grads := gradientsByIndex(rep)
	layers := sortedLayerIndices(grads)
	bw := opts.Topology.NICBandwidth
	lat := opts.Topology.StepLatency
	send := core.Channel("ps.send")
	recv := core.Channel("ps.recv")

	// One index build answers every (layer, round) query; the push/pull
	// tasks inserted below have no layer mapping, so the held snapshot
	// stays correct throughout (and the patch path never mutates the
	// shared baseline at all).
	idx := rep.LayerPhaseIndex()
	for r := 0; r < rounds; r++ {
		for _, li := range layers {
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
				push := ed.NewTask(fmt.Sprintf("push %s", gr.Layer), trace.KindComm, send, comm.TransferTime(sz, bw, lat))
				push.Bytes = sz
				push.Priority = priority
				push.Round = r
				pull := ed.NewTask(fmt.Sprintf("pull %s", gr.Layer), trace.KindComm, recv, comm.TransferTime(sz, bw, lat))
				pull.Bytes = sz
				pull.Priority = priority
				pull.Round = r
				if err := ed.AddDependency(u, push, core.DepComm); err != nil {
					return err
				}
				if err := ed.AddDependency(push, pull, core.DepComm); err != nil {
					return err
				}
				if v != nil {
					if err := ed.AddDependency(pull, v, core.DepComm); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
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
// between the last two rounds' completion frontiers — from whatever
// task view the simulation ran over (the rewritten graph, or the
// annotation patch over a shared repeated baseline). Equivalent to
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
// Optimization value: a graph rewriter (the iteration is repeated
// before annotation) carrying its own metric — the steady-state round
// distance rather than the multi-round makespan. SliceBytes follows
// P3Options: positive enables P3's slicing and priorities, zero models
// the plain FIFO parameter server. For clone-free grids over a shared
// pre-repeated baseline, use OptP3Annotate.
func OptP3(opts P3Options) core.Optimization {
	rounds := opts.Rounds
	if rounds < 2 {
		rounds = 2
	}
	opts.Rounds = rounds
	return core.RewriteOpt(p3Name(opts),
		func(g *core.Graph) (*core.Graph, error) { return P3(g, opts) },
		p3SteadyState)
}

// OptP3Annotate returns Algorithm 7's annotation phase as a patch-form
// Optimization value: the baseline must already be the Repeat-expanded
// multi-round graph (Rounds rounds, default 2), and the push/pull
// annotation is recorded as copy-on-write deltas over it — the
// clone-free path for bandwidth grids that share one repeated profile
// across every scenario (Figure 10). Carries the same steady-state
// metric as OptP3 and predicts identically.
func OptP3Annotate(opts P3Options) core.Optimization {
	return core.PatchOpt(p3Name(opts), core.Structural,
		func(p *core.Patch) error { return P3Annotate(p, opts) },
		p3SteadyState)
}
