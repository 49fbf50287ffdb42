package framework

import (
	"math"
	"testing"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/trace"
)

// TestConcurrentKernelsOverlap checks that the §7.5 multi-stream mode
// really runs ResNet's downsample shortcuts on a second stream, and that
// the concurrency never slows the iteration down.
func TestConcurrentKernelsOverlap(t *testing.T) {
	m, _ := dnn.ByName("resnet50")
	serial := mustRun(t, Config{Model: m, CollectTrace: true})
	conc := mustRun(t, Config{Model: m, ConcurrentKernels: true, CollectTrace: true})

	streams := conc.Trace.Streams()
	if len(streams) != 2 {
		t.Fatalf("concurrent trace has streams %v, want two", streams)
	}
	if got := serial.Trace.Streams(); len(got) != 1 {
		t.Fatalf("serial trace has streams %v, want one", got)
	}
	if conc.IterationTime > serial.IterationTime {
		t.Fatalf("concurrent (%v) slower than serial (%v)", conc.IterationTime, serial.IterationTime)
	}

	// At least one branch kernel must actually overlap a main-stream
	// kernel in time.
	var mains, branches []trace.Interval
	for _, a := range conc.Trace.Activities {
		if a.Kind != trace.KindKernel {
			continue
		}
		iv := trace.Interval{Start: a.Start, End: a.End()}
		switch a.Stream {
		case computeStream:
			mains = append(mains, iv)
		case branchStream:
			branches = append(branches, iv)
		}
	}
	if len(branches) == 0 {
		t.Fatal("no kernels on the branch stream")
	}
	// |mains ∩ branches| = |mains| + |branches| − |mains ∪ branches|.
	both := append(append([]trace.Interval(nil), mains...), branches...)
	if trace.UnionLength(mains)+trace.UnionLength(branches)-trace.UnionLength(both) == 0 {
		t.Fatal("branch kernels never overlap the main stream")
	}
}

// TestConcurrentTraceReplay quantifies §7.5's caveat: a two-stream trace
// replays slightly optimistically because the dataflow join between
// streams is not CUPTI-visible, but the error stays small (the paper
// observes the same for GNMT: "can still be predicted with high
// accuracy").
func TestConcurrentTraceReplay(t *testing.T) {
	m, _ := dnn.ByName("resnet50")
	res := mustRun(t, Config{Model: m, ConcurrentKernels: true, CollectTrace: true})
	g, err := core.Build(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := g.PredictIteration()
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(float64(sim-res.IterationTime)) / float64(res.IterationTime)
	t.Logf("two-stream replay: traced %v, simulated %v (%.2f%%)", res.IterationTime, sim, 100*rel)
	if rel > 0.05 {
		t.Fatalf("two-stream replay error %.1f%% too large", 100*rel)
	}
}
