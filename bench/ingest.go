package main

import (
	"bytes"
	"fmt"
	"time"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/trace"
)

// ingestBatches is how many batch sizes of each zoo model the ingest
// workload uploads, each as a distinct trace.
const ingestBatches = 3

// ingest times the upload path, one trace at a time: decode the trace
// JSON, build the dependency graph and map layers, validate it, simulate
// the baseline and build the layer index. It cycles over every zoo model
// at three seeded batch sizes, so trace decode and graph build do most of
// the work and no what-if runs.
type ingest struct {
	cfg      *config
	profiles []profile
	blobs    [][]byte
	deck     *deck
	answers  []ingestAnswer
}

// ingestAnswer is what one op produced for one trace.
type ingestAnswer struct {
	blob     int
	makespan time.Duration
	tasks    int
	edges    int
}

func newIngest(cfg *config) (*ingest, error) {
	rng := newRand(cfg.seed, 1)
	w := &ingest{cfg: cfg}
	for _, model := range dnn.Names() {
		choices := batchChoices[model]
		for _, k := range rng.Perm(len(choices))[:ingestBatches] {
			p := profile{model: model, batch: choices[k], jitter: rng.Uint64()}
			blob, err := p.blob()
			if err != nil {
				return nil, err
			}
			w.profiles = append(w.profiles, p)
			w.blobs = append(w.blobs, blob)
		}
	}
	w.deck = newDeck(rng, len(w.blobs))
	return w, nil
}

func (w *ingest) run(d time.Duration, traced bool) phase {
	var tr *tracer
	if traced {
		tr = newTracer(0, processStart)
	}
	ph := closedLoop(d, func() (int, int) {
		if err := w.op(tr); err != nil {
			return 1, 1
		}
		return 1, 0
	})
	if traced {
		ph.tracers = []*tracer{tr}
	}
	return ph
}

func (w *ingest) op(tr *tracer) error {
	b := w.deck.next()
	id := len(w.answers)
	op := tr.begin("ingest.op", id, false)
	a, err := w.upload(tr, id, w.blobs[b])
	tr.end(op)
	if err != nil {
		return err
	}
	a.blob = b
	if id == 0 && w.cfg.tamper != nil {
		a.makespan = time.Duration(w.cfg.tamper(int64(a.makespan)))
	}
	w.answers = append(w.answers, a)
	return nil
}

// upload runs the stages of one trace upload, each in its own span.
func (w *ingest) upload(tr *tracer, id int, blob []byte) (ingestAnswer, error) {
	s := tr.begin("trace.read_json", id, true)
	t, err := trace.ReadJSON(bytes.NewReader(blob))
	tr.end(s)
	if err != nil {
		return ingestAnswer{}, err
	}
	s = tr.begin("core.build", id, true)
	g, err := core.Build(t)
	if err == nil {
		core.MapLayers(g, t.LayerSpans)
	}
	tr.end(s)
	if err != nil {
		return ingestAnswer{}, err
	}
	s = tr.begin("core.validate", id, false)
	err = g.Validate()
	tr.end(s)
	if err != nil {
		return ingestAnswer{}, err
	}
	s = tr.begin("core.simulate.baseline", id, false)
	res, err := g.Simulate()
	tr.end(s)
	if err != nil {
		return ingestAnswer{}, err
	}
	s = tr.begin("core.layer_index", id, false)
	g.LayerPhaseIndex()
	tr.end(s)
	return ingestAnswer{makespan: res.Makespan, tasks: g.NumTasks(), edges: g.NumEdges()}, nil
}

// verify checks every upload against a graph built in memory from the
// same trace, collected again, without the JSON round trip.
func (w *ingest) verify() (int, string, error) {
	refs := make([]ingestAnswer, len(w.profiles))
	lines := make([]string, len(w.profiles))
	for i, p := range w.profiles {
		g, err := p.graph()
		if err != nil {
			return 0, "", err
		}
		res, err := g.Simulate()
		if err != nil {
			return 0, "", err
		}
		refs[i] = ingestAnswer{blob: i, makespan: res.Makespan, tasks: g.NumTasks(), edges: g.NumEdges()}
		lines[i] = fmt.Sprintf("%s %d %d %d", p.key(), res.Makespan, refs[i].tasks, refs[i].edges)
	}
	mismatches := 0
	for _, a := range w.answers {
		if a != refs[a.blob] {
			mismatches++
		}
	}
	return mismatches, digest(lines), nil
}

func (w *ingest) trail() []string {
	keys := make([]string, len(w.answers))
	for i, a := range w.answers {
		keys[i] = w.profiles[a.blob].key()
	}
	return keys
}

func (w *ingest) close() {}
