package whatif

import (
	"fmt"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/trace"
)

// DistributedOptions configures the distributed-training what-if.
type DistributedOptions struct {
	// Topology is the target cluster (machines × GPUs, bandwidths).
	Topology comm.Topology
	// BucketBytes caps gradient buckets when the trace metadata carries
	// no bucket assignment; zero selects the DDP default (25 MB).
	BucketBytes int64
}

// DistributedPatch predicts data-parallel training performance from a
// single-GPU profile, per the paper's §5.1 and Algorithm 6: one
// ncclAllReduce task is inserted per gradient bucket on the
// communication channel, depending on the last backward GPU task of the
// bucket's layers and feeding the earliest weight-update node.
// Durations come from the analytic ring all-reduce formula — the
// paper's predictor knows the gradient sizes, primitive type and
// network bandwidth, nothing more. The all-reduce tasks and their
// dependency edges are recorded as copy-on-write deltas over the
// patch's shared baseline; Patch.Materialize yields the distributed
// graph itself for the models that rewrite it further (BlueConnect,
// DGC).
func DistributedPatch(p *core.Patch, opts DistributedOptions) error {
	g := p.Base()
	n := opts.Topology.TotalGPUs()
	if n <= 1 {
		return nil // single worker: the baseline graph is the answer
	}
	if err := requireLayers(g, "Distributed"); err != nil {
		return err
	}
	buckets := comm.BucketsFromTrace(g.Meta.Gradients)
	if len(buckets) == 0 {
		grads := append([]trace.GradientInfo(nil), g.Meta.Gradients...)
		buckets = comm.AssignBuckets(grads, opts.BucketBytes)
	}
	if len(buckets) == 0 {
		return fmt.Errorf("whatif: Distributed: model has no gradients")
	}
	// The baseline's memoized layer/phase index answers every bucket's
	// queries: the O(layers × tasks) per-bucket scans collapse into one
	// O(tasks) build, shared as-is because the patch never mutates the
	// baseline.
	idx := g.LayerPhaseIndex()
	wu := idx.EarliestWeightUpdate()
	if wu == nil {
		return fmt.Errorf("whatif: Distributed: no weight-update tasks in graph")
	}
	ch := core.Channel("nccl")
	for _, b := range buckets {
		task := p.NewTask("ncclAllReduce", trace.KindComm, ch, opts.Topology.AllReduceTime(b.Bytes))
		task.Bytes = b.Bytes
		// NCCL calls on one communicator serialize in launch order.
		p.AppendTask(task)
		// The all-reduce starts when the bucket's last gradient is
		// computed …
		deps := 0
		for _, li := range b.Layers {
			if u := idx.LastBackwardGPUAnyRound(li); u != nil {
				if err := p.AddDependency(u, task, core.DepComm); err != nil {
					return err
				}
				deps++
			}
		}
		if deps == 0 {
			return fmt.Errorf("whatif: Distributed: bucket %d has no backward tasks", b.ID)
		}
		// … and the weight update waits for every bucket.
		if err := p.AddDependency(task, wu, core.DepComm); err != nil {
			return err
		}
	}
	return nil
}

// OptDistributed returns the data-parallel prediction (Algorithm 6,
// DistributedPatch) as a structural Optimization value: the all-reduce
// insertions are recorded as copy-on-write deltas, so sweep grids over
// one shared profile stay clone-free.
func OptDistributed(opts DistributedOptions) core.Optimization {
	t := opts.Topology
	name := fmt.Sprintf("distributed %s @%.0fGbps", t.String(), t.NICBandwidth/comm.Gbps(1))
	return core.PatchOpt(name, core.Structural,
		func(p *core.Patch) error { return DistributedPatch(p, opts) }, nil)
}
