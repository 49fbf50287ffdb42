package whatif_test

import (
	"testing"

	"daydream/internal/core"
)

// applied returns a private graph carrying opt: opt recorded on a patch
// over the graph it is evaluated on (g, or g's Repeat for a value that
// declares rounds), then materialized.
func applied(t *testing.T, g *core.Graph, opt core.Optimization) *core.Graph {
	t.Helper()
	m, err := materialized(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// materialized records opt on a patch over core.OptBaseline(g, opt) and
// materializes it.
func materialized(g *core.Graph, opt core.Optimization) (*core.Graph, error) {
	g, apply, err := core.OptBaseline(g, opt)
	if err != nil {
		return nil, err
	}
	p := core.NewPatch(g)
	if err := apply.Apply(p); err != nil {
		return nil, err
	}
	return p.Materialize()
}

// assertSameSchedule holds a simulation over a view to the reference
// simulation of a materialized graph: the same makespan, the same start
// for every task live in the reference (IDs are preserved by Clone and
// left as holes by Remove) and, when path is set, the same critical
// path task for task.
func assertSameSchedule(t *testing.T, v core.TaskView, got *core.SimResult, ref *core.Graph, want *core.SimResult, path bool) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Fatalf("makespan: view %v, reference %v", got.Makespan, want.Makespan)
	}
	for id := 0; id < ref.IDSpan(); id++ {
		if ref.Task(id) == nil {
			continue
		}
		if got.Start[id] != want.Start[id] {
			t.Fatalf("task %d start: view %v, reference %v", id, got.Start[id], want.Start[id])
		}
	}
	if !path {
		return
	}
	gotPath := core.CriticalPathView(v, got)
	wantPath := core.CriticalPath(ref, want)
	if len(gotPath) != len(wantPath) {
		t.Fatalf("critical path length: view %d, reference %d", len(gotPath), len(wantPath))
	}
	for i := range gotPath {
		if gotPath[i].ID != wantPath[i].ID {
			t.Fatalf("critical path[%d]: view #%d, reference #%d", i, gotPath[i].ID, wantPath[i].ID)
		}
	}
}
