package main

import (
	"encoding/json"
	"fmt"
	"time"

	"daydream/internal/core"
	"daydream/internal/mem"
	"daydream/internal/whatif"
)

// predictQuestions lists, per warm baseline, the registry questions the
// predict workload asks of it: each only where it applies (FusedAdam on
// Adam-trained BERT, batchnorm restructuring and vDNN/Gist on the CNNs).
// P3 is left out: only its clone tier differs, and the sweep workload
// covers that.
var predictQuestions = []struct {
	model string
	exprs []string
}{
	{"bert-large", []string{"amp", "fusedadam", "amp+fusedadam", "upgrade", "scale", "distributed", "amp+distributed", "pipeline:4x8:gpipe"}},
	{"resnet50", []string{"amp", "reconbn", "upgrade", "distributed", "vdnn", "gist", "pipeline:2x4"}},
	{"densenet121", []string{"amp", "reconbn-removal", "upgrade", "scale", "amp+distributed", "vdnn", "gist+vdnn", "pipeline:2x4:gpipe"}},
	{"gnmt", []string{"amp", "upgrade", "scale", "amp+distributed", "pipeline:4x8"}},
}

// question is one predict question: an optimization expression over a
// baseline, with its parameters.
type question struct {
	key    string
	model  string
	base   *core.Graph
	expr   string
	params whatif.OptParams
}

// predict times one prediction at a time against warm baselines: parse
// the expression, apply it to a patch, simulate, read the answer, run the
// memory post-pass and encode the response. The questions mix timing-only
// what-ifs (which set the median) with structural and scheduled ones
// (vDNN, Gist, pipelines, which set the tail); no trace is ingested.
type predict struct {
	cfg     *config
	qs      []question
	deck    *deck
	patch   *core.Patch
	answers []predictAnswer
	// sink keeps the last encoded response alive.
	sink []byte
	// simTasks counts the tasks simulated since the phase began.
	simTasks int
}

type predictAnswer struct {
	q    int
	ns   time.Duration
	peak int64
}

// predictResponse is the encoded answer to one question.
type predictResponse struct {
	Model       string `json:"model"`
	Opt         string `json:"opt"`
	PredictedNS int64  `json:"predicted_ns"`
	PeakBytes   int64  `json:"peak_bytes"`
}

// questionClass sorts questions by the evaluation path they take:
// scheduled when the optimization carries a scheduling policy, structural
// when it edits the graph's shape, timing otherwise.
func questionClass(opt core.Optimization) int {
	switch {
	case core.OptScheduler(opt) != nil:
		return classScheduled
	case opt.Footprint() == core.Structural:
		return classStructural
	}
	return classTiming
}

const (
	classTiming = iota
	classStructural
	classScheduled
)

var (
	applySpans    = [...]string{"whatif.apply.timing", "whatif.apply.structural", "whatif.apply.scheduled"}
	simulateSpans = [...]string{"core.simulate.timing", "core.simulate.structural", "core.simulate.scheduled"}
)

func newPredict(cfg *config) (*predict, error) {
	rng := newRand(cfg.seed, 2)
	w := &predict{cfg: cfg}
	for _, mq := range predictQuestions {
		p := seededProfile(rng, mq.model)
		base, err := p.graph()
		if err != nil {
			return nil, err
		}
		base.LayerPhaseIndex()
		if _, err := mem.AnnotationOf(base); err != nil {
			return nil, err
		}
		for _, expr := range mq.exprs {
			w.qs = append(w.qs, question{
				key:    p.key() + " " + expr,
				model:  mq.model,
				base:   base,
				expr:   expr,
				params: optParams(seededParams(rng, mq.model)),
			})
		}
	}
	w.deck = newDeck(rng, len(w.qs))
	return w, nil
}

func (w *predict) run(d time.Duration, traced bool) phase {
	var tr *tracer
	if traced {
		tr = newTracer(0, processStart)
	}
	w.simTasks = 0
	ph := closedLoop(d, func() (int, int) {
		if err := w.op(tr); err != nil {
			return 1, 1
		}
		return 1, 0
	})
	if traced {
		ph.tracers = []*tracer{tr}
		agg := aggregate(tr)
		var simNS time.Duration
		for _, name := range simulateSpans {
			if st := agg[name]; st != nil {
				simNS += st.total
			}
		}
		ph.layer = map[string]float64{
			"core.tasks_per_op":    float64(w.simTasks) / float64(max(ph.attempted, 1)),
			"core.sim_ns_per_task": float64(simNS) / float64(max(w.simTasks, 1)),
		}
	}
	return ph
}

func (w *predict) op(tr *tracer) error {
	qi := w.deck.next()
	id := len(w.answers)
	op := tr.begin("predict.op", id, true)
	a, err := w.answer(tr, id, &w.qs[qi])
	tr.end(op)
	if err != nil {
		return fmt.Errorf("%s: %w", w.qs[qi].key, err)
	}
	a.q = qi
	if id == 0 && w.cfg.tamper != nil {
		a.ns = time.Duration(w.cfg.tamper(int64(a.ns)))
	}
	w.answers = append(w.answers, a)
	return nil
}

// answer runs the stages of one prediction, each in its own span.
func (w *predict) answer(tr *tracer, id int, q *question) (predictAnswer, error) {
	s := tr.begin("whatif.parse", id, false)
	opt, err := whatif.ParseStack(q.expr, q.params)
	tr.end(s)
	if err != nil {
		return predictAnswer{}, err
	}
	class := questionClass(opt)

	s = tr.begin(applySpans[class], id, false)
	if w.patch == nil {
		w.patch = core.NewPatch(q.base)
	} else {
		w.patch.Reset(q.base)
	}
	err = opt.Apply(w.patch)
	tr.end(s)
	if err != nil {
		return predictAnswer{}, err
	}

	s = tr.begin(simulateSpans[class], id, false)
	res, err := w.patch.Simulate(simOpts(opt)...)
	tr.end(s)
	if err != nil {
		return predictAnswer{}, err
	}
	w.simTasks += w.patch.NumTasks()

	s = tr.begin("whatif.measure", id, false)
	ns, err := measure(opt, w.patch, res)
	tr.end(s)
	if err != nil {
		return predictAnswer{}, err
	}

	s = tr.begin("mem.profile", id, false)
	var prof *mem.Profile
	ann, err := mem.AnnotationOf(q.base)
	if err == nil {
		prof, err = mem.ComputeProfile(w.patch, res, ann, mem.MeasurersOf(opt)...)
	}
	tr.end(s)
	if err != nil {
		return predictAnswer{}, err
	}
	peak := prof.MaxPeak()

	s = tr.begin("encode", id, false)
	w.sink, err = json.Marshal(predictResponse{Model: q.model, Opt: q.expr, PredictedNS: int64(ns), PeakBytes: peak})
	tr.end(s)
	if err != nil {
		return predictAnswer{}, err
	}
	return predictAnswer{ns: ns, peak: peak}, nil
}

// verify checks every answer against the question's oracle: the patch
// materialized into a graph and simulated cold for the time, and
// mem.ProfileOpt for the peak, both bit for bit.
func (w *predict) verify() (int, string, error) {
	refs := make([]predictAnswer, len(w.qs))
	lines := make([]string, len(w.qs))
	for i := range w.qs {
		q := &w.qs[i]
		ref, err := oracle(q)
		if err != nil {
			return 0, "", fmt.Errorf("%s: %w", q.key, err)
		}
		ref.q = i
		refs[i] = ref
		lines[i] = fmt.Sprintf("%s %d %d", q.key, ref.ns, ref.peak)
	}
	mismatches := 0
	for _, a := range w.answers {
		if a != refs[a.q] {
			mismatches++
		}
	}
	return mismatches, digest(lines), nil
}

func oracle(q *question) (predictAnswer, error) {
	opt, err := whatif.ParseStack(q.expr, q.params)
	if err != nil {
		return predictAnswer{}, err
	}
	p := core.NewPatch(q.base)
	if err := opt.Apply(p); err != nil {
		return predictAnswer{}, err
	}
	g, err := p.Materialize()
	if err != nil {
		return predictAnswer{}, err
	}
	res, err := g.Simulate(simOpts(opt)...)
	if err != nil {
		return predictAnswer{}, err
	}
	ns, err := measure(opt, g, res)
	if err != nil {
		return predictAnswer{}, err
	}
	_, prof, err := mem.ProfileOpt(q.base, opt)
	if err != nil {
		return predictAnswer{}, err
	}
	return predictAnswer{ns: ns, peak: prof.MaxPeak()}, nil
}

func (w *predict) trail() []string {
	keys := make([]string, len(w.answers))
	for i, a := range w.answers {
		keys[i] = w.qs[a.q].key
	}
	return keys
}

func (w *predict) close() {}
