package core

import (
	"sort"
	"time"
)

// CriticalPath returns, for a simulated graph, a longest chain of tasks in
// which each task's simulated start coincides with the constraint imposed
// by its predecessor — the path that determines the makespan. It answers
// the paper's first what-if question ("Why did my DNN training workload
// run slowly?") quantitatively: shrinking any task off this path cannot
// improve the iteration.
func CriticalPath(g *Graph, res *SimResult) []*Task {
	return CriticalPathView(g, res)
}

// CriticalPathView is CriticalPath over any task view — the *Graph the
// simulation ran on, or the *Patch of a clone-free scenario,
// whose effective adjacency and sequence links the reconstruction reads
// without materializing anything. KeepSims sweep consumers use it to
// diagnose patch scenarios directly from the retained SimResult.
//
// The path is reconstructed backwards from the task that finishes last:
// at each step the binding constraint is either a dependency parent whose
// finish (plus gap) equals the task's start, or the previous task on the
// same execution thread. A task that started at time zero still walks to
// a binding zero-duration parent when one exists (zero-cost roots do not
// truncate the chain); only a task with no binding constraint at all
// ends it.
func CriticalPathView(v TaskView, res *SimResult) []*Task {
	// End times read through the result, so a patch simulation's
	// effective timings drive the reconstruction (TaskDuration/TaskGap
	// fall back to the Task fields for plain simulations).
	end := func(t *Task) time.Duration {
		return res.Start[t.ID] + res.TaskDuration(t) + res.TaskGap(t)
	}
	// Find the last-finishing task.
	var last *Task
	var lastEnd time.Duration
	for _, t := range v.Tasks() {
		if e := end(t); last == nil || e > lastEnd {
			last, lastEnd = t, e
		}
	}
	if last == nil {
		return nil
	}
	var path []*Task
	for t := last; t != nil; {
		path = append(path, t)
		start := res.Start[t.ID]
		// Binding dependency parent? (Checked even at start == 0: a
		// zero-duration parent finishing at 0 is still the constraint.)
		var next *Task
		for _, p := range v.Parents(t) {
			if end(p) == start {
				next = p
				break
			}
		}
		// Otherwise the thread predecessor paced it.
		if next == nil {
			if prev := v.SeqPrev(t); prev != nil && end(prev) == start {
				next = prev
			}
		}
		if next == nil {
			// The task started at its earliest-possible time with
			// slack before it: the chain ends here.
			break
		}
		t = next
	}
	// Reverse into execution order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// PathAttribution summarizes where a critical path's time goes.
type PathAttribution struct {
	// Label groups tasks (thread kind, or phase, or layer).
	Label string
	// Time is the summed duration+gap of the path's tasks in the group.
	Time time.Duration
	// Tasks is the group's task count.
	Tasks int
}

// AttributePath groups a critical path's time by the given labeling
// function, sorted by descending time. Times come from the raw Task
// fields; for paths over a patch simulation use
// AttributePathSim, which reads the effective timings.
func AttributePath(path []*Task, label func(*Task) string) []PathAttribution {
	return attributePath(path, label, func(t *Task) time.Duration {
		return t.Duration + t.Gap
	})
}

// AttributePathSim is AttributePath with the simulation's effective
// per-task timings: each task contributes res.TaskDuration+res.TaskGap,
// so paths from clone-free patch scenarios attribute the
// scenario's timings rather than the shared baseline's.
func AttributePathSim(res *SimResult, path []*Task, label func(*Task) string) []PathAttribution {
	return attributePath(path, label, func(t *Task) time.Duration {
		return res.TaskDuration(t) + res.TaskGap(t)
	})
}

func attributePath(path []*Task, label func(*Task) string, cost func(*Task) time.Duration) []PathAttribution {
	byLabel := map[string]*PathAttribution{}
	for _, t := range path {
		l := label(t)
		a := byLabel[l]
		if a == nil {
			a = &PathAttribution{Label: l}
			byLabel[l] = a
		}
		a.Time += cost(t)
		a.Tasks++
	}
	out := make([]PathAttribution, 0, len(byLabel))
	for _, a := range byLabel {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// ByThreadKind labels tasks by their execution-resource kind — the
// coarsest "where does the time go" split (CPU vs GPU vs network).
func ByThreadKind(t *Task) string { return t.Thread.Kind.String() }

// ByPhase labels mapped tasks by training phase and unmapped ones
// "unmapped".
func ByPhase(t *Task) string {
	if !t.HasLayer {
		return "unmapped"
	}
	return t.Phase.String()
}

// ByLayer labels mapped tasks by layer name.
func ByLayer(t *Task) string {
	if !t.HasLayer {
		return "unmapped"
	}
	return t.Layer
}
