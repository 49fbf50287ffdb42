package core

import (
	"fmt"
	"strings"
	"time"
)

// Predicate helpers for Select (§4.4: select by layer, by name keyword, by
// location).

// NameContains matches tasks whose name contains the substring — the
// paper's select-by-keyword (e.g. "sgemm", "elementwise").
func NameContains(sub string) func(*Task) bool {
	return func(t *Task) bool { return strings.Contains(t.Name, sub) }
}

// ComputeIntensivePred matches tasks the paper's Algorithm 3 treats as
// compute-intensive by name convention ("sgemm"/"scudnn" kernels — the
// ones tensor cores accelerate ~3×). AMP and DeviceUpgrade share it,
// and LayerPhaseIndex caches it per GPU task so overlay scenarios skip
// the substring scans entirely.
func ComputeIntensivePred(t *Task) bool {
	return strings.Contains(t.Name, "sgemm") || strings.Contains(t.Name, "scudnn")
}

// Repeat returns a new graph containing n back-to-back copies of g: every
// thread's sequence is replicated and chained, modeling consecutive
// training iterations in steady state. Tasks carry their copy index in
// Round. Cross-iteration what-ifs (P3's pull-before-next-forward, vDNN
// prefetching) transform the repeated graph. The source must be a
// single round: Repeat refuses a graph whose tasks already carry rounds
// (a repeat of a repeat, or a materialized pipeline), since it would
// relabel them.
//
// The copy is laid out in bulk, like Build's: round r's tasks take IDs
// [r·live, (r+1)·live) in g's ID order. Each task's adjacency lists its
// within-round edges first, then the sequence edge chaining it to the
// adjacent round.
func (g *Graph) Repeat(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: Repeat: n must be ≥1, got %d", n)
	}
	// Round r's copy of the task with old ID id is arena[r*live+pos[id]],
	// where pos numbers the live tasks in ID order.
	live := g.live
	pos := make([]int32, len(g.tasks))
	k := int32(0)
	perRound := 0 // non-sequence edges per round
	for id, t := range g.tasks {
		if t == nil {
			pos[id] = -1
			continue
		}
		if t.Round > 0 {
			return nil, fmt.Errorf("core: Repeat: task %v already belongs to round %d; repeat a single-round graph", t, t.Round)
		}
		pos[id] = k
		k++
		for i, c := range t.children {
			if t.childKinds[i] != DepSequence && c != t.seqNext {
				perRound++
			}
		}
	}
	// Each thread's chain from its head to its last task.
	type chain struct {
		tid        ThreadID
		head, last *Task
	}
	chains := make([]chain, 0, len(g.threads))
	chained := 0 // threads with at least one task
	for tid, l := range g.threads {
		c := chain{tid: tid, head: l.head}
		for t := l.head; t != nil; t = t.seqNext {
			c.last = t
		}
		if c.head != nil {
			chained++
		}
		chains = append(chains, c)
	}
	perRound += live - chained
	arena := make([]Task, n*live)
	out := &Graph{
		Meta:  g.Meta,
		tasks: make([]*Task, n*live),
		live:  n * live,
	}
	edges := make([]edge, 0, n*perRound+(n-1)*chained)
	for r := 0; r < n; r++ {
		base := int32(r * live)
		for id, t := range g.tasks {
			if t == nil {
				continue
			}
			i := base + pos[id]
			nt := &arena[i]
			*nt = *t
			nt.ID = int(i)
			nt.Round = r
			nt.parents, nt.children, nt.childKinds = nil, nil, nil
			nt.seqPrev, nt.seqNext, nt.peer = nil, nil, nil
			if t.peer != nil {
				if p := pos[t.peer.ID]; p >= 0 {
					nt.peer = &arena[base+p]
				}
			}
			out.tasks[i] = nt
		}
		// Thread sequences, chained to the previous round.
		for _, c := range chains {
			prev := int32(-1)
			if r > 0 && c.last != nil {
				prev = base - int32(live) + pos[c.last.ID]
			}
			for t := c.head; t != nil; t = t.seqNext {
				i := base + pos[t.ID]
				if prev >= 0 {
					arena[i].seqPrev = &arena[prev]
					arena[prev].seqNext = &arena[i]
					edges = append(edges, edge{from: prev, to: i, kind: DepSequence})
				}
				prev = i
			}
		}
		// Non-sequence edges within the round. One that joins a task to
		// its thread successor duplicates the sequence edge just added,
		// and the first edge between two tasks wins.
		for id, t := range g.tasks {
			if t == nil {
				continue
			}
			for i, c := range t.children {
				if kind := t.childKinds[i]; kind != DepSequence && c != t.seqNext {
					edges = append(edges, edge{from: base + pos[id], to: base + pos[c.ID], kind: kind})
				}
			}
		}
	}
	out.edges = layoutEdges(arena, edges)

	// A thread with no tasks left is listed, empty, only when n > 1.
	seqs := make([]seqList, len(chains))
	out.threads = make(map[ThreadID]*seqList, len(chains))
	last := int32((n - 1) * live)
	for i, c := range chains {
		if c.head != nil {
			seqs[i] = seqList{head: &arena[pos[c.head.ID]], tail: &arena[last+pos[c.last.ID]]}
		} else if n == 1 {
			continue
		}
		out.threads[c.tid] = &seqs[i]
	}
	out.InvalidateLayerPhaseIndex()
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// RoundSpan returns, for a simulated repeated graph (or a Patch viewing
// one), the completion time of the last task of the given round. The
// steady-state iteration time of an n-round graph is RoundSpan(r) −
// RoundSpan(r−1).
func RoundSpan(v TaskView, res *SimResult, round int) time.Duration {
	// On a windowed result, retired rounds answer from their summary;
	// retained rounds fall through to the per-task scan below.
	if w := res.win; w != nil && round >= 0 && round < w.retired {
		return w.summaries[round].End
	}
	var end time.Duration
	for _, t := range v.Tasks() {
		if t.Round != round {
			continue
		}
		if f := res.Finish(t); f > end {
			end = f
		}
	}
	return end
}
