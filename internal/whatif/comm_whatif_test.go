package whatif_test

import (
	"testing"
	"time"

	"daydream/internal/comm"
	"daydream/internal/framework"
	"daydream/internal/whatif"
)

// TestBlueConnectHelpsOnHierarchicalTopology checks BlueConnect's selling
// point: on a cluster where intra-machine links are much faster than the
// shared NIC, decomposing the all-reduce into per-dimension stages beats
// the flat ring that bottlenecks on NIC/gpusPerMachine.
func TestBlueConnectHelpsOnHierarchicalTopology(t *testing.T) {
	g := profile(t, "vgg19", framework.PyTorch)
	topo := comm.Topology{
		Machines: 2, GPUsPerMachine: 4,
		NICBandwidth:   comm.Gbps(10),
		IntraBandwidth: 11e9,
		StepLatency:    15 * time.Microsecond,
	}
	flatTime := predict(t, applied(t, g, whatif.OptDistributed(whatif.DistributedOptions{Topology: topo})))

	blue := applied(t, g, whatif.OptDistributed(whatif.DistributedOptions{Topology: topo}))
	// Dimension 0: across the 2 machines over the NIC; dimension 1:
	// the 4 GPUs within a machine over PCIe.
	if err := whatif.BlueConnect(blue, whatif.BlueConnectOptions{
		Factors:     []int{2, 4},
		Bandwidths:  []float64{comm.Gbps(10), 11e9},
		StepLatency: 15 * time.Microsecond,
	}); err != nil {
		t.Fatal(err)
	}
	blueTime := predict(t, blue)
	if blueTime >= flatTime {
		t.Fatalf("BlueConnect (%v) should beat the flat ring (%v) on a hierarchical cluster",
			blueTime, flatTime)
	}
}

// TestDGCCompressionRatioMatters checks that heavier compression predicts
// faster iterations in a comm-bound setting.
func TestDGCCompressionRatioMatters(t *testing.T) {
	g := applied(t, profile(t, "vgg19", framework.PyTorch),
		whatif.OptDistributed(whatif.DistributedOptions{Topology: topo4x1(2)}))
	run := func(ratio float64) time.Duration {
		c := g.Clone()
		if err := whatif.DGC(c, whatif.DGCOptions{CompressionRatio: ratio}); err != nil {
			t.Fatal(err)
		}
		return predict(t, c)
	}
	heavy := run(0.003)
	light := run(0.3)
	if heavy >= light {
		t.Fatalf("0.3%% compression (%v) should beat 30%% compression (%v)", heavy, light)
	}
}

// TestDistributedBucketSizeTradeoff checks the bucketing knob: a graph
// re-bucketed with tiny buckets pays more per-primitive latency.
func TestDistributedBucketSizeTradeoff(t *testing.T) {
	g := profile(t, "resnet50", framework.PyTorch)
	run := func(bucketBytes int64) time.Duration {
		c := g.Clone()
		// Clear the metadata bucket assignment so the option applies.
		for i := range c.Meta.Gradients {
			c.Meta.Gradients[i].Bucket = -1
		}
		topo := topo4x1(10)
		topo.StepLatency = 200 * time.Microsecond
		return predict(t, applied(t, c, whatif.OptDistributed(whatif.DistributedOptions{
			Topology: topo, BucketBytes: bucketBytes,
		})))
	}
	tiny := run(256 << 10) // 256 KB buckets: many high-latency primitives
	deflt := run(comm.DefaultBucketBytes)
	if tiny <= deflt {
		t.Fatalf("256KB buckets (%v) should pay more latency than 25MB buckets (%v)", tiny, deflt)
	}
}

// TestP3SliceSizeTradeoff checks P3's slice-size knob: very coarse slices
// approach FIFO behaviour, so fine slices should do at least as well in a
// comm-bound regime.
func TestP3SliceSizeTradeoff(t *testing.T) {
	g := profile(t, "vgg19", framework.MXNet)
	run := func(slice int64) time.Duration {
		res, err := whatif.P3(g.Clone(), whatif.P3Options{Topology: topo4x1(5), SliceBytes: slice})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := res.Graph.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		return res.IterationTime(sim)
	}
	fine := run(800 << 10)
	coarse := run(512 << 20) // slices larger than any tensor ≈ FIFO
	if fine > coarse {
		t.Fatalf("fine slices (%v) should not lose to coarse slices (%v)", fine, coarse)
	}
}
