package core

import (
	"errors"
	"testing"
)

// anyEdge returns the endpoints of some non-sequence edge of g.
func anyEdge(t *testing.T, g *Graph) (from, to *Task) {
	t.Helper()
	for _, p := range g.tasks {
		if p == nil {
			continue
		}
		for i, c := range p.children {
			if p.childKinds[i] != DepSequence {
				return p, c
			}
		}
	}
	t.Fatal("graph has no non-sequence edge")
	return nil, nil
}

// TestValidateMemoResetByEdgeEdits checks that the acyclicity memo Build
// leaves behind does not outlive an edge edit: a dependency that closes
// a cycle makes Validate report it, and removing the dependency makes
// the graph valid again.
func TestValidateMemoResetByEdgeEdits(t *testing.T) {
	g := modelGraph(t, "resnet50")
	if g.acyclic.Load() != 1 {
		t.Fatalf("Build left the acyclicity memo at %d, want 1 (proven acyclic)", g.acyclic.Load())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	from, to := anyEdge(t, g)
	if err := g.addDependency(to, from, DepCustom); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate after closing a cycle = %v, want ErrCycle", err)
	}
	if !g.removeDependency(to, from) {
		t.Fatal("the closing edge was not found")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after removing the closing edge = %v", err)
	}
}

// TestValidateCopiesRunKahn checks that Clone and Repeat do not inherit
// the acyclicity memo. A cycle written into the adjacency directly,
// past addEdge, leaves the source graph's memo stale, so its Validate
// trusts the memo; the copies' first Validate must still run Kahn's pass
// and find the cycle.
func TestValidateCopiesRunKahn(t *testing.T) {
	g := modelGraph(t, "resnet50")
	from, to := anyEdge(t, g)
	to.children = append(to.children, from)
	to.childKinds = append(to.childKinds, DepCustom)
	from.parents = append(from.parents, to)
	g.edges++
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate with a proven-acyclic memo = %v; want it to skip Kahn's pass", err)
	}

	c := g.Clone()
	if v := c.acyclic.Load(); v != 0 {
		t.Fatalf("Clone copied the acyclicity memo (%d)", v)
	}
	if err := c.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate on the clone = %v, want ErrCycle", err)
	}
	if _, err := g.Repeat(2); !errors.Is(err, ErrCycle) {
		t.Fatalf("Repeat(2) = %v, want ErrCycle", err)
	}
}
