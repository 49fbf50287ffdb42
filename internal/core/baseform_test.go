package core

import (
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"daydream/internal/trace"
)

// wideGraph builds three 70-task streams, interleaved in ID order, with
// a cross-stream edge at every fifth position — enough tasks that an
// all-task edit densifies a patch's timing tier.
func wideGraph(t *testing.T) (*Graph, [][]*Task) {
	t.Helper()
	g := NewGraph()
	streams := make([][]*Task, 3)
	for i := 0; i < 70; i++ {
		for s := range streams {
			k := g.NewTask("k", trace.KindKernel, Stream(s), time.Duration(1+(i*7+s*3)%11))
			g.AppendTask(k)
			if s > 0 && i%5 == 0 {
				if err := g.AddDependency(streams[s-1][i], k, DepCustom); err != nil {
					t.Fatal(err)
				}
			}
			streams[s] = append(streams[s], k)
		}
	}
	return g, streams
}

// TestRebindAfterStructuralEdit binds a patch to a graph and simulates
// it, which builds the graph's compiled baseline, then edits the graph
// with each structural mutator and rebinds. The mutator must drop the
// memo, and the rebound patch must simulate exactly like a fresh patch,
// the graph itself and a clone, thread ends included. Both timing
// storages are covered: sparse, and dense, which Reset keeps for an
// unchanged baseline. Clone and Repeat must start without a memo.
func TestRebindAfterStructuralEdit(t *testing.T) {
	cases := []struct {
		name string
		// setup runs before the first simulation and returns the edit.
		setup func(t *testing.T, g *Graph, streams [][]*Task) func()
	}{
		{"NewTask+AppendTask", func(t *testing.T, g *Graph, streams [][]*Task) func() {
			return func() {
				x := g.NewTask("grown", trace.KindKernel, Stream(9), 25)
				g.AppendTask(x)
				if err := g.AddDependency(streams[0][3], x, DepCustom); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"InsertAfter", func(t *testing.T, g *Graph, streams [][]*Task) func() {
			x := g.NewTask("moved", trace.KindKernel, Stream(9), 25)
			return func() {
				if err := g.InsertAfter(streams[1][10], x); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"InsertBefore", func(t *testing.T, g *Graph, streams [][]*Task) func() {
			x := g.NewTask("moved", trace.KindKernel, Stream(9), 25)
			return func() {
				if err := g.InsertBefore(streams[2][0], x); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"Remove", func(t *testing.T, g *Graph, streams [][]*Task) func() {
			return func() { g.Remove(streams[1][20]) }
		}},
		{"MapLayers", func(t *testing.T, g *Graph, streams [][]*Task) func() {
			return func() { MapLayers(g, []trace.LayerSpan{{Layer: "l0", End: 1}}) }
		}},
	}
	for _, c := range cases {
		for _, dense := range []bool{false, true} {
			name := c.name + "/sparse"
			if dense {
				name = c.name + "/dense"
			}
			t.Run(name, func(t *testing.T) {
				g, streams := wideGraph(t)
				edit := c.setup(t, g, streams)
				p := NewPatch(g)
				if dense {
					for _, k := range g.Tasks() {
						p.ScaleDuration(k, 1)
					}
					if !p.dense {
						t.Fatal("an all-task edit left the patch sparse")
					}
				}
				if _, err := p.Simulate(); err != nil {
					t.Fatal(err)
				}
				if g.form.Load() == nil {
					t.Fatal("simulating a patch built no compiled baseline")
				}
				edit()
				if g.form.Load() != nil {
					t.Fatal("the edit kept the compiled baseline")
				}
				p.Reset(g)
				got, err := p.Simulate()
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewPatch(g).Simulate()
				if err != nil {
					t.Fatal(err)
				}
				own, err := g.Simulate()
				if err != nil {
					t.Fatal(err)
				}
				// A clone has no memo, so it lays its threads out afresh.
				cloned, err := g.Clone().Simulate()
				if err != nil {
					t.Fatal(err)
				}
				for _, want := range []*SimResult{fresh, own, cloned} {
					if got.Makespan != want.Makespan {
						t.Fatalf("rebound makespan %v, want %v", got.Makespan, want.Makespan)
					}
					if len(got.Start) != len(want.Start) {
						t.Fatalf("rebound result spans %d IDs, want %d", len(got.Start), len(want.Start))
					}
					if !maps.Equal(got.ThreadEnd, want.ThreadEnd) {
						t.Fatalf("rebound thread ends %v, want %v", got.ThreadEnd, want.ThreadEnd)
					}
					for id := range want.Start {
						if got.Start[id] != want.Start[id] {
							t.Fatalf("task #%d: rebound start %v, want %v", id, got.Start[id], want.Start[id])
						}
					}
				}
				if g.form.Load() == nil {
					t.Fatal("rebinding built no compiled baseline")
				}
				if g.Clone().form.Load() != nil {
					t.Fatal("Clone copied the compiled baseline")
				}
				r, err := g.Repeat(2)
				if err != nil {
					t.Fatal(err)
				}
				if r.form.Load() != nil {
					t.Fatal("Repeat copied the compiled baseline")
				}
			})
		}
	}
}

// TestGraphSimulateBuildsNoBaseline pins that a one-shot simulation of
// a fresh graph, an upload's baseline run, leaves no compiled baseline
// behind: only views build it.
func TestGraphSimulateBuildsNoBaseline(t *testing.T) {
	g, _ := wideGraph(t)
	if _, err := g.Simulate(); err != nil {
		t.Fatal(err)
	}
	if g.form.Load() != nil {
		t.Fatal("Graph.Simulate built a compiled baseline")
	}
}

// TestCompiledBaseConcurrentViews has several goroutines bind views to
// one fresh graph at once, so their first compiles race to build and
// publish the graph's compiled baseline; every view must simulate like
// the graph itself. Run it under -race.
func TestCompiledBaseConcurrentViews(t *testing.T) {
	g, _ := wideGraph(t)
	want, err := g.Clone().Simulate()
	if err != nil {
		t.Fatal(err)
	}
	const views = 4
	got := make([]*SimResult, views)
	errs := make([]error, views)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = NewPatch(g).Simulate()
		}()
	}
	wg.Wait()
	for i, res := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res.Makespan != want.Makespan || !slices.Equal(res.Start, want.Start) {
			t.Fatalf("view %d: makespan %v, want %v (or starts differ)", i, res.Makespan, want.Makespan)
		}
	}
}
