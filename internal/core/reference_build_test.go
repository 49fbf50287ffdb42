package core

import (
	"fmt"
	"sort"
	"time"

	"daydream/internal/trace"
)

// refBuild is the incremental graph construction Build used before it
// laid graphs out in bulk: one heap task per activity, appended to its
// thread and wired with one addEdge per dependency. It is the reference
// the bulk Build is held to. The one intended difference from the
// original is the synchronization sweep, which visits streams in
// first-enqueued order rather than map order.
func refBuild(tr *trace.Trace) (*Graph, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("core: build: %w", err)
	}
	g := NewGraph()
	g.Meta = Metadata{
		Model:         tr.Model,
		Device:        tr.Device,
		Framework:     tr.Framework,
		Precision:     tr.Precision,
		BatchSize:     tr.BatchSize,
		IterationTime: tr.IterationTime,
		Gradients:     append([]trace.GradientInfo(nil), tr.Gradients...),
	}

	acts := append([]trace.Activity(nil), tr.Activities...)
	sort.SliceStable(acts, func(i, j int) bool {
		if acts[i].Start != acts[j].Start {
			return acts[i].Start < acts[j].Start
		}
		return acts[i].ID < acts[j].ID
	})

	tasks := make([]*Task, len(acts))
	byCorrAPI := make(map[uint64]*Task)
	byCorrGPU := make(map[uint64]*Task)
	for i := range acts {
		a := &acts[i]
		tid, err := threadOf(a)
		if err != nil {
			return nil, err
		}
		t := g.NewTask(a.Name, a.Kind, tid, a.Duration)
		t.TracedStart = a.Start
		t.TracedDuration = a.Duration
		t.Correlation = a.Correlation
		t.Bytes = a.Bytes
		t.Dir = a.Dir
		tasks[i] = t
		if a.Correlation != 0 {
			if a.Kind.OnCPU() {
				byCorrAPI[a.Correlation] = t
			} else {
				byCorrGPU[a.Correlation] = t
			}
		}
	}

	lastOnThread := make(map[ThreadID]*Task)
	for _, t := range tasks {
		if prev := lastOnThread[t.Thread]; prev != nil && t.Thread.Kind == CPUThread {
			gap := t.TracedStart - prev.End()
			if gap > 0 {
				prev.Gap = gap
			}
		}
		g.AppendTask(t)
		lastOnThread[t.Thread] = t
	}

	for corr, api := range byCorrAPI {
		gpu := byCorrGPU[corr]
		if gpu == nil {
			return nil, fmt.Errorf("core: correlation %d has no GPU record", corr)
		}
		if err := g.Correlate(api, gpu); err != nil {
			return nil, err
		}
	}

	lastEnqueued := make(map[ThreadID]*Task)
	var streams []ThreadID // first-enqueued order
	enqueue := func(gpu *Task) {
		if lastEnqueued[gpu.Thread] == nil {
			streams = append(streams, gpu.Thread)
		}
		lastEnqueued[gpu.Thread] = gpu
	}
	var lastGPU *Task
	for _, t := range tasks {
		if isBlockingCall(t) {
			var waited time.Duration
			for _, s := range streams {
				gpu := lastEnqueued[s]
				g.addEdge(gpu, t, DepSync)
				if gpu.End() > waited {
					waited = gpu.End()
				}
			}
			t.Duration = syncResidual(t, waited)
		} else if t.Kind == trace.KindComm && lastGPU != nil {
			g.addEdge(lastGPU, t, DepComm)
		}
		switch {
		case t.OnCPU() && t.Correlation != 0:
			if gpu := t.peer; gpu != nil {
				enqueue(gpu)
				lastGPU = gpu
			}
		case t.OnGPU() && t.Correlation == 0:
			enqueue(t)
			lastGPU = t
		}
	}

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// refRepeat is the incremental Graph.Repeat the bulk form replaced: one
// NewTask per copy and one addEdge per edge.
func refRepeat(g *Graph, n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: Repeat: n must be ≥1, got %d", n)
	}
	out := NewGraph()
	out.Meta = g.Meta
	idMap := make([][]*Task, n)
	for r := 0; r < n; r++ {
		idMap[r] = make([]*Task, len(g.tasks))
		for id, t := range g.tasks {
			if t == nil {
				continue
			}
			nt := out.NewTask(t.Name, t.Kind, t.Thread, t.Duration)
			nt.Gap = t.Gap
			nt.TracedStart = t.TracedStart
			nt.TracedDuration = t.TracedDuration
			nt.Layer, nt.LayerIndex, nt.Phase, nt.HasLayer = t.Layer, t.LayerIndex, t.Phase, t.HasLayer
			nt.Correlation = t.Correlation
			nt.Bytes = t.Bytes
			nt.Dir = t.Dir
			nt.Priority = t.Priority
			nt.Round = r
			idMap[r][id] = nt
		}
		for tid := range g.threads {
			var prev *Task
			if r > 0 {
				prev = out.seq(tid).tail
			}
			for t := g.threads[tid].head; t != nil; t = t.seqNext {
				nt := idMap[r][t.ID]
				if prev != nil {
					nt.seqPrev = prev
					prev.seqNext = nt
					out.addEdge(prev, nt, DepSequence)
				} else {
					out.seq(tid).head = nt
				}
				out.seq(tid).tail = nt
				prev = nt
			}
		}
		for id, t := range g.tasks {
			if t == nil {
				continue
			}
			for i, c := range t.children {
				if kind := t.childKinds[i]; kind != DepSequence {
					out.addEdge(idMap[r][id], idMap[r][c.ID], kind)
				}
			}
			if t.peer != nil {
				if np := idMap[r][t.peer.ID]; np != nil {
					idMap[r][id].peer = np
				}
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
