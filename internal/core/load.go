package core

import (
	"io"

	"daydream/internal/trace"
)

// LoadGraph reads a trace from r and builds its kernel-granularity
// dependency graph with the synchronization-free task-to-layer mapping
// applied — the canonical trace-bytes-to-graph path. The public
// daydream.LoadGraph helper, both CLIs and the serve subsystem's
// baseline-upload endpoint all run through this one function, so trace
// ingestion (and its typed error taxonomy) cannot drift between entry
// points. The trace is validated once, by Build. Errors are
// trace.ErrMalformed from decoding, the trace.Validate taxonomy
// (trace.ErrNegativeTime and friends) from Build's check, or graph
// construction errors; on any error LoadGraph returns no trace.
func LoadGraph(r io.Reader) (*trace.Trace, *Graph, error) {
	tr, err := trace.ReadJSONUnvalidated(r)
	if err != nil {
		return nil, nil, err
	}
	g, err := Build(tr)
	if err != nil {
		return nil, nil, err
	}
	MapLayers(g, tr.LayerSpans)
	return tr, g, nil
}
