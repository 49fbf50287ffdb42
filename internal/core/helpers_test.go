package core

import (
	"testing"
	"time"

	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/trace"
)

// collectTrace profiles a zoo model on the synthetic substrate.
func collectTrace(t *testing.T, name string) *trace.Trace {
	t.Helper()
	m, err := dnn.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := framework.Run(framework.Config{Model: m, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// modelGraph profiles a zoo model on the synthetic substrate and builds
// its mapped dependency graph — the shared fixture for integration-level
// core tests.
func modelGraph(t *testing.T, name string) *Graph {
	t.Helper()
	tr := collectTrace(t, name)
	g, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	MapLayers(g, tr.LayerSpans)
	return g
}

// scaleTasks multiplies the tasks' durations in place by factor: test
// graphs built by hand are private, so they may be written directly.
func scaleTasks(tasks []*Task, factor float64) {
	for _, t := range tasks {
		t.Duration = time.Duration(float64(t.Duration) * factor)
	}
}
