package core

import (
	"slices"
	"time"
)

// baseForm is a graph's compiled per-ID baseline: the timing arrays
// every Patch over the graph starts its effective values from (and an
// IncrementalSim reads as its warm timings), and the task →
// thread-ordinal layout every view simulates with.
// It costs 28 bytes per task ID. It is built on first use by a view,
// published atomically on the graph, and read-only from then on, so any
// number of views share one copy and rebinding a view to another
// baseline is a pointer load.
type baseForm struct {
	dur, gap  []time.Duration
	prio      []int
	threadOf  []int32
	threadIDs []ThreadID
}

// compiledBase returns the graph's memoized base form, building it on
// first use. Concurrent first calls may build duplicate-but-identical
// forms, of which one wins — the LayerPhaseIndex contract.
func (g *Graph) compiledBase() *baseForm {
	if f := g.form.Load(); f != nil {
		return f
	}
	n := len(g.tasks)
	f := &baseForm{
		dur:  make([]time.Duration, n),
		gap:  make([]time.Duration, n),
		prio: make([]int, n),
	}
	for id, t := range g.tasks {
		if t != nil {
			f.dur[id], f.gap[id], f.prio[id] = t.Duration, t.Gap, t.Priority
		}
	}
	of, ids := layoutThreads(make([]int32, 0, n), nil, g.tasks)
	f.threadOf, f.threadIDs = of, slices.Clip(ids)
	g.form.Store(f)
	return f
}
