package core

import (
	"testing"
	"time"

	"daydream/internal/comm"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/trace"
)

func TestBuildRejectsInvalidTrace(t *testing.T) {
	bad := &trace.Trace{Activities: []trace.Activity{
		{ID: 0, Kind: trace.KindKernel, Start: -1},
	}}
	if _, err := Build(bad); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestBuildFiveDependencyTypes(t *testing.T) {
	m, _ := dnn.ByName("resnet50")
	res, err := framework.Run(framework.Config{
		Model:        m,
		Cluster:      &framework.Cluster{Topology: comm.Topology{Machines: 2, GPUsPerMachine: 1, NICBandwidth: comm.Gbps(10), IntraBandwidth: 11e9}, Backend: framework.BackendNCCL},
		CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[DepKind]int{}
	for _, u := range g.Tasks() {
		for _, c := range u.Children() {
			if k, ok := g.EdgeKind(u, c); ok {
				counts[k]++
			}
		}
	}
	for _, k := range []DepKind{DepSequence, DepCorrelation, DepSync, DepComm} {
		if counts[k] == 0 {
			t.Errorf("no %v dependencies in a distributed trace", k)
		}
	}
}

func TestBuildCorrelationPeers(t *testing.T) {
	g := modelGraph(t, "resnet50")
	launches := g.Select(func(t *Task) bool { return t.Kind == trace.KindLaunch })
	if len(launches) == 0 {
		t.Fatal("no launches")
	}
	for _, l := range launches {
		peer := l.Peer()
		if peer == nil || !peer.OnGPU() {
			t.Fatalf("launch %v has no GPU peer", l)
		}
		if peer.Correlation != l.Correlation {
			t.Fatal("peer correlation mismatch")
		}
	}
}

func TestBuildGapsNonNegative(t *testing.T) {
	g := modelGraph(t, "gnmt")
	for _, u := range g.Tasks() {
		if u.Gap < 0 {
			t.Fatalf("task %v has negative gap", u)
		}
		if !u.OnCPU() && u.Gap != 0 {
			t.Fatalf("non-CPU task %v carries a gap", u)
		}
	}
}

func TestBuildSyncResidual(t *testing.T) {
	// Sync tasks must not retain their full traced (waiting-inclusive)
	// duration, or what-ifs could never shrink the iteration.
	g := modelGraph(t, "resnet50")
	syncs := g.Select(func(t *Task) bool { return t.Kind == trace.KindSync })
	if len(syncs) == 0 {
		t.Fatal("no syncs")
	}
	for _, s := range syncs {
		if s.Duration > 2*time.Millisecond {
			t.Fatalf("sync %v kept duration %v; waiting should be edges", s, s.Duration)
		}
		if len(s.Parents()) < 2 { // sequence predecessor + ≥1 GPU task
			t.Fatalf("sync %v lacks GPU dependencies", s)
		}
	}
}

func TestBuildBlockingD2HHasSyncEdge(t *testing.T) {
	g := modelGraph(t, "resnet50")
	d2h := g.Select(func(u *Task) bool {
		return u.Kind == trace.KindMemcpyAPI && u.Dir == trace.MemcpyD2H
	})
	if len(d2h) == 0 {
		t.Fatal("no blocking D2H copies (loss retrieval should produce one)")
	}
	for _, u := range d2h {
		hasGPUParent := false
		for _, p := range u.Parents() {
			if p.OnGPU() && p != u.Peer() {
				hasGPUParent = true
			}
		}
		if !hasGPUParent {
			t.Fatalf("blocking D2H %v has no GPU dependency", u)
		}
	}
}

func TestBuildMetadataCopied(t *testing.T) {
	m, _ := dnn.ByName("vgg19")
	res, err := framework.Run(framework.Config{Model: m, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if g.Meta.Model != "VGG-19" || g.Meta.IterationTime != res.IterationTime {
		t.Errorf("metadata wrong: %+v", g.Meta)
	}
	if len(g.Meta.Gradients) != len(res.Trace.Gradients) {
		t.Error("gradients not copied")
	}
	// Graph metadata must not alias the trace.
	g.Meta.Gradients[0].Bytes = -1
	if res.Trace.Gradients[0].Bytes == -1 {
		t.Error("metadata aliases the trace")
	}
}

func TestBuildValidatesResult(t *testing.T) {
	for _, name := range dnn.Names() {
		g := modelGraph(t, name)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: built graph invalid: %v", name, err)
		}
	}
}

func TestThreadOfError(t *testing.T) {
	a := &trace.Activity{Kind: trace.Kind(99)}
	if _, err := threadOf(a); err == nil {
		t.Fatal("unknown kind mapped to a thread")
	}
}

func TestSyncResidualMath(t *testing.T) {
	us := time.Microsecond
	u := &Task{TracedStart: 100 * us, Duration: 50 * us} // traced end 150µs
	// GPU finished at 140µs: residual = 10µs.
	if got := syncResidual(u, 140*us); got != 10*us {
		t.Fatalf("residual = %v, want 10µs", got)
	}
	// GPU finished before the call started: full duration remains.
	if got := syncResidual(u, 50*us); got != 50*us {
		t.Fatalf("residual = %v, want 50µs", got)
	}
	// GPU finished after the call's end: floor applies.
	if got := syncResidual(u, 200*us); got != minSyncResidual {
		t.Fatalf("residual = %v, want floor", got)
	}
}
