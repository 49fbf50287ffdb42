package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"daydream/internal/comm"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/trace"
)

// zooCase is one traced run the differential tests build from.
type zooCase struct {
	name string
	cfg  framework.Config
}

// zooCases returns every zoo model on one GPU, plus distributed and
// multi-stream resnet50 runs, which add communication tasks and
// synchronizations that wait on more than one stream.
func zooCases(t testing.TB) []zooCase {
	t.Helper()
	var out []zooCase
	for _, name := range dnn.Names() {
		m, err := dnn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, zooCase{name, framework.Config{Model: m, CollectTrace: true}})
	}
	m, err := dnn.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	topo := comm.Topology{Machines: 2, GPUsPerMachine: 1, NICBandwidth: comm.Gbps(10), IntraBandwidth: 11e9}
	out = append(out,
		zooCase{"resnet50-nccl-concurrent", framework.Config{Model: m, CollectTrace: true, ConcurrentKernels: true,
			Cluster: &framework.Cluster{Topology: topo, Backend: framework.BackendNCCL, SyncBeforeComm: true}}},
		zooCase{"resnet50-ps", framework.Config{Model: m, CollectTrace: true,
			Cluster: &framework.Cluster{Topology: topo, Backend: framework.BackendPS}}},
	)
	return out
}

func runTrace(t testing.TB, cfg framework.Config) *trace.Trace {
	t.Helper()
	res, err := framework.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// taskIDs renders tasks as their IDs (-1 for nil).
func taskIDs(ts ...*Task) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = -1
		if t != nil {
			out[i] = t.ID
		}
	}
	return out
}

// sameGraph fails unless got and want are the same graph: metadata, task
// fields, per-task adjacency in order, sequence links, peers, threads
// and edge count. It also checks that got's adjacency slices are
// capacity-clipped, so an append on one task cannot write into another's.
func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.Meta, want.Meta) {
		t.Fatalf("meta %+v, want %+v", got.Meta, want.Meta)
	}
	if got.IDSpan() != want.IDSpan() || got.NumTasks() != want.NumTasks() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("span/tasks/edges %d/%d/%d, want %d/%d/%d",
			got.IDSpan(), got.NumTasks(), got.NumEdges(), want.IDSpan(), want.NumTasks(), want.NumEdges())
	}
	if g, w := got.Threads(), want.Threads(); !reflect.DeepEqual(g, w) {
		t.Fatalf("threads %v, want %v", g, w)
	}
	for _, tid := range want.Threads() {
		if g, w := taskIDs(got.ThreadTasks(tid)...), taskIDs(want.ThreadTasks(tid)...); !reflect.DeepEqual(g, w) {
			t.Fatalf("thread %v holds %v, want %v", tid, g, w)
		}
	}
	for id := 0; id < want.IDSpan(); id++ {
		g, w := got.Task(id), want.Task(id)
		if (g == nil) != (w == nil) {
			t.Fatalf("task %d present %v, want %v", id, g != nil, w != nil)
		}
		if w == nil {
			continue
		}
		gf, wf := *g, *w
		gf.parents, gf.children, gf.childKinds, gf.seqPrev, gf.seqNext, gf.peer = nil, nil, nil, nil, nil, nil
		wf.parents, wf.children, wf.childKinds, wf.seqPrev, wf.seqNext, wf.peer = nil, nil, nil, nil, nil, nil
		if !reflect.DeepEqual(gf, wf) {
			t.Fatalf("task %d fields\n got %+v\nwant %+v", id, gf, wf)
		}
		for _, c := range []struct {
			what      string
			got, want []int
		}{
			{"children", taskIDs(g.children...), taskIDs(w.children...)},
			{"parents", taskIDs(g.parents...), taskIDs(w.parents...)},
			{"seqPrev/seqNext/peer", taskIDs(g.seqPrev, g.seqNext, g.peer), taskIDs(w.seqPrev, w.seqNext, w.peer)},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("task %d %s %v, want %v", id, c.what, c.got, c.want)
			}
		}
		if !slices.Equal(g.childKinds, w.childKinds) {
			t.Fatalf("task %d child kinds %v, want %v", id, g.childKinds, w.childKinds)
		}
		if cap(g.children) != len(g.children) || cap(g.childKinds) != len(g.childKinds) || cap(g.parents) != len(g.parents) {
			t.Fatalf("task %d adjacency not capacity-clipped", id)
		}
	}
}

// sameSimulation fails unless got and want simulate bit-identically,
// under the default policy and under a LIFO scheduler, and give the same
// critical path.
func sameSimulation(t *testing.T, got, want *Graph) {
	t.Helper()
	for _, opts := range [][]SimOption{nil, {WithScheduler(lifoScheduler{})}} {
		gr, gerr := got.Simulate(opts...)
		wr, werr := want.Simulate(opts...)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("simulate error %v, want %v", gerr, werr)
		}
		if werr != nil {
			continue
		}
		if gr.Makespan != wr.Makespan || !reflect.DeepEqual(gr.Start, wr.Start) {
			t.Fatalf("simulation differs (scheduled=%v): makespan %v, want %v", len(opts) > 0, gr.Makespan, wr.Makespan)
		}
		if g, w := taskIDs(CriticalPath(got, gr)...), taskIDs(CriticalPath(want, wr)...); !reflect.DeepEqual(g, w) {
			t.Fatalf("critical path %v, want %v", g, w)
		}
	}
}

// TestBuildMatchesReference holds the bulk Build to the incremental
// reference on every zoo trace, before and after layer mapping.
func TestBuildMatchesReference(t *testing.T) {
	for _, zc := range zooCases(t) {
		t.Run(zc.name, func(t *testing.T) {
			tr := runTrace(t, zc.cfg)
			got, err := Build(tr)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refBuild(tr)
			if err != nil {
				t.Fatal(err)
			}
			sameGraph(t, got, want)
			MapLayers(got, tr.LayerSpans)
			MapLayers(want, tr.LayerSpans)
			sameGraph(t, got, want)
			sameSimulation(t, got, want)
		})
	}
}

// TestRepeatMatchesReference holds the bulk Repeat to the incremental
// reference on every zoo graph, and on a graph whose thread successor is
// joined by a custom edge (the duplicate-edge case).
func TestRepeatMatchesReference(t *testing.T) {
	for _, zc := range zooCases(t) {
		t.Run(zc.name, func(t *testing.T) {
			tr := runTrace(t, zc.cfg)
			g, err := Build(tr)
			if err != nil {
				t.Fatal(err)
			}
			MapLayers(g, tr.LayerSpans)
			for _, n := range []int{1, 3} {
				got, err := g.Repeat(n)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refRepeat(g, n)
				if err != nil {
					t.Fatal(err)
				}
				sameGraph(t, got, want)
				sameSimulation(t, got, want)
			}
		})
	}
	t.Run("custom-successor-edge", func(t *testing.T) {
		g := NewGraph()
		var ts []*Task
		for i := 0; i < 4; i++ {
			u := g.newTask(fmt.Sprint(i), trace.KindKernel, Stream(1), time.Duration(i+1))
			g.appendTask(u)
			ts = append(ts, u)
		}
		side := g.newTask("side", trace.KindKernel, Stream(2), 5)
		g.appendTask(side)
		if err := g.addDependency(ts[0], ts[2], DepCustom); err != nil {
			t.Fatal(err)
		}
		if err := g.addDependency(ts[0], side, DepComm); err != nil {
			t.Fatal(err)
		}
		// Removing ts[1] makes ts[2] the successor of ts[0], already
		// joined by the custom edge; removing side empties stream 2.
		g.remove(ts[1])
		g.remove(side)
		for _, n := range []int{1, 2, 3} {
			got, err := g.Repeat(n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refRepeat(g, n)
			if err != nil {
				t.Fatal(err)
			}
			sameGraph(t, got, want)
			sameSimulation(t, got, want)
		}
	})
}

// TestRepeatEditsStayPerTask checks that editing one task's adjacency in
// a repeated graph reallocates that task's slices and leaves its arena
// neighbours untouched.
func TestRepeatEditsStayPerTask(t *testing.T) {
	g := modelGraph(t, "resnet50")
	r, err := g.Repeat(2)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Clone()
	a, b := r.Task(0), r.Task(r.IDSpan()-1)
	if err := r.addDependency(a, b, DepCustom); err != nil {
		t.Fatal(err)
	}
	if !r.removeDependency(a, b) {
		t.Fatal("edge not added")
	}
	sameGraph(t, want, r)
}

// TestBuildSyncEdgeOrderStable builds a trace in which one blocking call
// waits on two streams whose last kernels end together. Its sync parents
// must come in the same order on every build, and so must the critical
// path, which takes the first binding parent.
func TestBuildSyncEdgeOrderStable(t *testing.T) {
	us := time.Microsecond
	tr := &trace.Trace{Activities: []trace.Activity{
		{ID: 1, Name: "launch", Kind: trace.KindLaunch, Start: 0, Duration: us, Thread: 1, Correlation: 1},
		{ID: 2, Name: "launch", Kind: trace.KindLaunch, Start: 2 * us, Duration: us, Thread: 1, Correlation: 2},
		{ID: 3, Name: "k1", Kind: trace.KindKernel, Start: 2 * us, Duration: 8 * us, Stream: 7, Correlation: 1},
		{ID: 4, Name: "k2", Kind: trace.KindKernel, Start: 4 * us, Duration: 6 * us, Stream: 8, Correlation: 2},
		{ID: 5, Name: "sync", Kind: trace.KindSync, Start: 4 * us, Duration: 7 * us, Thread: 1},
	}}
	var first, firstPath []int
	for i := 0; i < 50; i++ {
		g, err := Build(tr)
		if err != nil {
			t.Fatal(err)
		}
		var sync *Task
		for _, u := range g.Tasks() {
			if u.Kind == trace.KindSync {
				sync = u
			}
		}
		parents := taskIDs(sync.Parents()...)
		res, err := g.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		path := taskIDs(CriticalPath(g, res)...)
		if i == 0 {
			first, firstPath = parents, path
			if len(parents) != 3 {
				t.Fatalf("sync parents %v, want its thread predecessor and both kernels", parents)
			}
			continue
		}
		if !reflect.DeepEqual(parents, first) || !reflect.DeepEqual(path, firstPath) {
			t.Fatalf("build %d: sync parents %v, critical path %v; first build gave %v, %v", i, parents, path, first, firstPath)
		}
	}
}

// randomTrace generates a small trace for FuzzBuildMatchesReference:
// every activity kind on a few threads, streams and channels, tied start
// times, correlated launches and copies, blocking calls, and now and
// then a record Validate or Build rejects.
func randomTrace(rng *rand.Rand, n int, faults bool) *trace.Trace {
	us := time.Microsecond
	tr := &trace.Trace{Model: "fuzz", BatchSize: 1}
	ids := rng.Perm(n)
	scale := 1
	if rng.Intn(4) == 0 {
		scale = 1000 // sparse IDs: Validate's map path
	}
	corr := uint64(0)
	for i := 0; i < n; i++ {
		a := trace.Activity{
			ID:       ids[i] * scale,
			Name:     fmt.Sprint("a", i),
			Kind:     trace.Kind(rng.Intn(9)),
			Start:    time.Duration(rng.Intn(40)) * us,
			Duration: time.Duration(rng.Intn(12)) * us,
			Thread:   rng.Intn(3),
			Stream:   rng.Intn(3),
			Channel:  []string{"nccl", "ps.send"}[rng.Intn(2)],
		}
		if a.Kind == trace.KindMemcpyAPI || a.Kind == trace.KindMemcpy {
			a.Dir = trace.MemcpyDir(rng.Intn(4))
		}
		// Correlate launches and copies with a GPU record that starts
		// no earlier (usually).
		if (a.Kind == trace.KindLaunch || a.Kind == trace.KindMemcpyAPI) && i+1 < n && rng.Intn(4) != 0 {
			corr++
			a.Correlation = corr
			gk := trace.KindKernel
			if a.Kind == trace.KindMemcpyAPI {
				gk = trace.KindMemcpy
			}
			tr.Activities = append(tr.Activities, a)
			i++
			a = trace.Activity{
				ID:          ids[i] * scale,
				Name:        fmt.Sprint("g", i),
				Kind:        gk,
				Start:       a.Start + time.Duration(rng.Intn(6)-1)*us,
				Duration:    time.Duration(rng.Intn(12)) * us,
				Stream:      rng.Intn(3),
				Correlation: corr,
				Dir:         a.Dir,
			}
			a.Start = max(a.Start, 0)
		}
		tr.Activities = append(tr.Activities, a)
	}
	if faults && len(tr.Activities) > 1 {
		a := &tr.Activities[rng.Intn(len(tr.Activities))]
		switch rng.Intn(5) {
		case 0:
			a.ID = tr.Activities[0].ID
		case 1:
			a.Start = -us
		case 2:
			a.Correlation = corr + 1 + uint64(rng.Intn(2))*uint64(1<<40)
		case 3:
			a.Kind = trace.Kind(9)
		default:
			a.Correlation = 1
		}
	}
	rng.Shuffle(len(tr.Activities), func(i, j int) {
		tr.Activities[i], tr.Activities[j] = tr.Activities[j], tr.Activities[i]
	})
	return tr
}

// FuzzBuildMatchesReference holds Build and Repeat to the incremental
// reference on generated traces: the same error, or the same graph and
// the same simulations. Each built graph then has random tasks removed
// before both forms repeat it.
func FuzzBuildMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(8+seed*9), seed%3 == 2, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8, faults bool, removals uint8) {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, int(size)%96, faults)
		got, gerr := Build(tr)
		want, werr := refBuild(tr)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("Build error %v, reference %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		sameGraph(t, got, want)
		sameSimulation(t, got, want)

		for i := 0; i < int(removals)%8 && got.NumTasks() > 0; i++ {
			got.remove(got.Tasks()[rng.Intn(got.NumTasks())])
		}
		rounds := 1 + rng.Intn(3)
		rg, gerr := got.Repeat(rounds)
		rw, werr := refRepeat(got, rounds)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("Repeat error %v, reference %v", gerr, werr)
		}
		if werr == nil {
			sameGraph(t, rg, rw)
			sameSimulation(t, rg, rw)
		}
	})
}

// BenchmarkBuildZoo builds every zoo model's trace once per iteration.
func BenchmarkBuildZoo(b *testing.B) {
	var traces []*trace.Trace
	for _, zc := range zooCases(b)[:len(dnn.Names())] {
		traces = append(traces, runTrace(b, zc.cfg))
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, tr := range traces {
			if _, err := Build(tr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRepeat repeats the resnet50 graph twice, as core.OptBaseline
// does for P3 once per evaluation (once per sweep call).
func BenchmarkRepeat(b *testing.B) {
	m, err := dnn.ByName("resnet50")
	if err != nil {
		b.Fatal(err)
	}
	tr := runTrace(b, framework.Config{Model: m, CollectTrace: true})
	g, err := Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	MapLayers(g, tr.LayerSpans)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := g.Repeat(2); err != nil {
			b.Fatal(err)
		}
	}
}
