package whatif

import (
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

// OptBlueConnect returns the all-reduce decomposition of Cho et al. per
// the paper's Algorithm 8 as a patch-form Optimization value: every
// all-reduce in the view is removed and replaced by a chain of
// reduce-scatter stages over p1…pk followed by all-gather stages over
// pk…p1, each stage assigned to its dimension's own channel so that
// stages of *different* buckets pipeline in parallel across channels.
// Stage durations come from the formulas the paper cites [56].
func OptBlueConnect(opts BlueConnectOptions) core.Optimization {
	return core.PatchOpt("blueconnect", core.Structural, func(p *core.Patch) error {
		reduces, err := allReduces(p, "BlueConnect")
		if err != nil {
			return err
		}
		for _, u := range reduces {
			stages, err := comm.Decompose(u.Bytes, opts.Factors, opts.Bandwidths, opts.StepLatency)
			if err != nil {
				return err
			}
			parents, children := p.Parents(u), p.Children(u)
			p.RemoveTask(u)
			var prev *core.Task
			for _, st := range stages {
				task := p.NewTask(st.Op, trace.KindComm, core.Channel(st.Channel), st.Duration)
				task.Bytes = st.Bytes
				p.AppendTask(task)
				from := []*core.Task{prev}
				if prev == nil {
					from = parents
				}
				for _, q := range from {
					if err := p.AddDependency(q, task, core.DepComm); err != nil {
						return err
					}
				}
				prev = task
			}
			for _, c := range children {
				if err := p.AddDependency(prev, c, core.DepComm); err != nil {
					return err
				}
			}
		}
		return nil
	}, nil)
}
