package whatif

import (
	"fmt"
	"time"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/trace"
)

// BlueConnectOptions configures the BlueConnect what-if.
type BlueConnectOptions struct {
	// Factors is the factorization p1·p2·…·pk of the worker count; each
	// dimension gets its own parallel communication channel.
	Factors []int
	// Bandwidths gives the per-dimension bus bandwidth in bytes/s
	// (intra-machine dimensions ride faster links).
	Bandwidths []float64
	// StepLatency is the per-algorithm-step latency.
	StepLatency time.Duration
}

// BlueConnect models the all-reduce decomposition of Cho et al. per the
// paper's Algorithm 8: every ncclAllReduce task in an (already
// distributed) graph is replaced by a chain of reduce-scatter stages over
// p1…pk followed by all-gather stages over pk…p1, each stage assigned to
// its dimension's own channel so that stages of *different* buckets
// pipeline in parallel across channels. Stage durations come from the
// formulas the paper cites [56].
func BlueConnect(g *core.Graph, opts BlueConnectOptions) error {
	reduces := g.Select(core.And(core.KindIs(trace.KindComm), core.NameContains("AllReduce")))
	if len(reduces) == 0 {
		return fmt.Errorf("whatif: BlueConnect: no allReduce tasks in graph (apply DistributedPatch and materialize first)")
	}
	for _, u := range reduces {
		stages, err := comm.Decompose(u.Bytes, opts.Factors, opts.Bandwidths, opts.StepLatency)
		if err != nil {
			return err
		}
		parents := append([]*core.Task(nil), u.Parents()...)
		children := append([]*core.Task(nil), u.Children()...)
		g.Remove(u)
		var prev *core.Task
		for _, st := range stages {
			task := g.NewTask(st.Op, trace.KindComm, core.Channel(st.Channel), st.Duration)
			task.Bytes = st.Bytes
			g.AppendTask(task)
			if prev == nil {
				for _, p := range parents {
					if err := g.AddDependency(p, task, core.DepComm); err != nil {
						return err
					}
				}
			} else {
				if err := g.AddDependency(prev, task, core.DepComm); err != nil {
					return err
				}
			}
			prev = task
		}
		for _, c := range children {
			if err := g.AddDependency(prev, c, core.DepComm); err != nil {
				return err
			}
		}
	}
	return nil
}
