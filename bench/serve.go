package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"daydream"
	"daydream/internal/core"
	"daydream/internal/mem"
	"daydream/internal/serve"
	"daydream/internal/whatif"
)

// serveRate is the open loop's arrival rate, in requests per second:
// about a tenth of the closed-loop throughput of this mix on the two-core
// machine the benchmark was sized on. It is a constant, not derived at run
// time, so that a faster or slower server faces the same offered load.
//
// The open loop gives the latency of each request kind and the load
// generator's lateness. The end-to-end latencies come from the closed
// loop: on that machine the open loop's tail measured the host more than
// the server. An idle process there overslept a 1 ms sleep by more than
// 5 ms about once a second, and over ten runs the open loop's 99th
// percentile spread by 30–100% at every rate and upload mix tried, its
// 90th by 24–60%, against 12–22% for the closed loop's 99th.
const serveRate = 200.0

// serveConns bounds the client connections, one per core.
const serveConns = 2

type reqKind int

const (
	kindUpload reqKind = iota
	kindPredictMiss
	kindPredictHit
	kindSweep
	kindMemory
	numKinds
)

var kindNames = [numKinds]string{"upload", "predict_miss", "predict_hit", "sweep", "memory"}

var kindSpans = [numKinds]string{"serve.upload", "serve.predict_miss", "serve.predict_hit", "serve.sweep", "serve.memory"}

// serveMix is how many of every 100 requests are of each kind: uploads
// of traces that are not resident (each builds a graph and evicts the
// least recently used baseline), predictions no one asked before (cache
// misses), repeats of a hot set (cache hits), 8-row sweeps and baseline
// memory reads.
var serveMix = [numKinds]int{2, 50, 35, 5, 8}

// serveHot are the resident baselines every read goes to. Uploads cycle
// over serveUploads distinct traces of serveUploadModel, more than the
// registry's eight slots leave free, so every upload builds. The uploads
// are all of one model, so each is the same work: the closed loop's 99th
// percentile falls among the uploads, and with a pool of three models it
// fell between two of them and moved with the draw.
var serveHot = []string{"bert-base", "resnet50"}

const (
	serveUploadModel = "resnet50"
	serveUploads     = 8
)

// serveHotQuestions are the repeated predictions per hot baseline, and
// serveGrids the sweep each sweep request asks of it.
var (
	serveHotQuestions = map[string][]string{
		"bert-base": {"amp", "fusedadam", "amp+fusedadam", "upgrade", "distributed"},
		"resnet50":  {"amp", "reconbn", "upgrade", "distributed", "gist"},
	}
	serveGrids = map[string][]string{
		"bert-base": {"amp", "fusedadam", "amp+fusedadam", "upgrade", "scale", "distributed", "amp+distributed", "pipeline:2x4"},
		"resnet50":  {"amp", "reconbn", "reconbn-removal", "upgrade", "scale", "distributed", "gist", "pipeline:2x4"},
	}
)

// verifyMissEvery is the share of cache-missing predictions verified:
// each is unique, so each needs its own in-process simulation.
const verifyMissEvery = 8

// checked reports whether verify checks the answer to r.
func checked(r request) bool {
	return r.kind != kindPredictMiss || r.miss%verifyMissEvery == 0
}

type hotBaseline struct {
	prof      profile
	id        string
	params    serve.Params
	hitBodies [][]byte
	sweepBody []byte
}

// request is one HTTP request of the mix.
type request struct {
	kind reqKind
	hot  int
	// item is the upload pool index or the hot question index.
	item int
	// miss numbers a cache-missing prediction; its scale factor is unique.
	miss int
}

// maxAnswerVals bounds the numbers one answer carries: one per sweep
// row, and three for an upload.
const maxAnswerVals = 8

// serveAnswer holds its numbers inline, so the answers recorded during a
// timed phase hold no pointers for the garbage collector to mark.
type serveAnswer struct {
	req  request
	n    int
	vals [maxAnswerVals]int64
}

type serveSample struct {
	kind      reqKind
	lat, late time.Duration
	ok        bool
}

// serveWorkload drives daydream.NewServer, with its default config, over
// a loopback listener: first a seeded Poisson open loop at serveRate for
// the latency of each request kind, then a closed loop over the same
// connections for throughput and the end-to-end latencies.
type serveWorkload struct {
	cfg    *config
	hot    []hotBaseline
	pool   []profile
	blobs  [][]byte
	srv    *daydream.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
	ops    atomic.Int64
	// arrivals draws the open loop's inter-arrival gaps.
	arrivals *rand.Rand
	missBase float64

	mu       sync.Mutex // guards the fields below
	rng      *rand.Rand
	block    []request
	uploads  int
	misses   int
	sent     []request
	answers  []serveAnswer
	tampered bool
}

func newServe(cfg *config) (_ *serveWorkload, err error) {
	rng := newRand(cfg.seed, 4)
	w := &serveWorkload{
		cfg:      cfg,
		rng:      newRand(cfg.seed, 5),
		arrivals: newRand(cfg.seed, 6),
		missBase: 0.5 + 0.4*rng.Float64(),
	}
	for _, model := range serveHot {
		hb := hotBaseline{prof: seededProfile(rng, model), params: seededParams(rng, model)}
		for _, expr := range serveHotQuestions[model] {
			body, err := json.Marshal(serve.PredictRequest{Opt: expr, Params: &hb.params})
			if err != nil {
				return nil, err
			}
			hb.hitBodies = append(hb.hitBodies, body)
		}
		if hb.sweepBody, err = json.Marshal(serve.SweepRequest{Opts: serveGrids[model], Params: &hb.params}); err != nil {
			return nil, err
		}
		w.hot = append(w.hot, hb)
	}
	for range serveUploads {
		p := seededProfile(rng, serveUploadModel)
		blob, err := p.blob()
		if err != nil {
			return nil, err
		}
		w.pool = append(w.pool, p)
		w.blobs = append(w.blobs, blob)
	}

	if err := w.start(); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	// Upload the hot baselines and ask the hot questions once, so the
	// timed repeats hit the cache.
	for i := range w.hot {
		h := &w.hot[i]
		blob, err := h.prof.blob()
		if err != nil {
			return nil, err
		}
		var up serve.UploadResponse
		if err := w.post("/v1/baselines", blob, &up); err != nil {
			return nil, fmt.Errorf("upload %s: %w", h.prof.key(), err)
		}
		h.id = up.ID
		for _, body := range h.hitBodies {
			var resp serve.PredictResponse
			if err := w.post("/v1/baselines/"+h.id+"/predict", body, &resp); err != nil {
				return nil, fmt.Errorf("warm %s: %w", h.prof.key(), err)
			}
		}
	}
	return w, nil
}

func (w *serveWorkload) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = daydream.NewServer(daydream.ServeConfig{})
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
	}}
	return nil
}

// close shuts the server down and waits for it to stop.
func (w *serveWorkload) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx)
	<-w.served
	_ = w.srv.Shutdown(ctx)
	w.client.CloseIdleConnections()
}

func (w *serveWorkload) post(path string, body []byte, out any) error {
	resp, err := w.client.Post(w.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

func (w *serveWorkload) get(path string, out any) error {
	resp, err := w.client.Get(w.url + path)
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

// decodeResponse reads a JSON answer; anything but 200 (429 included) is
// an error.
func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// nextRequest deals the next request of the seeded sequence: each block
// of 100 holds the mix in a fresh seeded order.
func (w *serveWorkload) nextRequest() request {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.block) == 0 {
		for k, n := range serveMix {
			for i := 0; i < n; i++ {
				w.block = append(w.block, request{kind: reqKind(k)})
			}
		}
		w.rng.Shuffle(len(w.block), func(i, j int) { w.block[i], w.block[j] = w.block[j], w.block[i] })
	}
	r := w.block[len(w.block)-1]
	w.block = w.block[:len(w.block)-1]
	r.hot = w.rng.IntN(len(w.hot))
	switch r.kind {
	case kindUpload:
		r.item = w.uploads % len(w.pool)
		w.uploads++
	case kindPredictMiss:
		r.miss = w.misses
		w.misses++
	case kindPredictHit:
		r.item = w.rng.IntN(len(w.hot[r.hot].hitBodies))
	}
	w.sent = append(w.sent, r)
	return r
}

func (w *serveWorkload) requestKey(r request) string {
	h := w.hot[r.hot].prof.key()
	switch r.kind {
	case kindUpload:
		return "upload " + w.pool[r.item].key()
	case kindPredictMiss:
		return fmt.Sprintf("predict_miss %s scale %g", h, w.missFactor(r.miss))
	case kindPredictHit:
		return "predict_hit " + h + " " + serveHotQuestions[w.hot[r.hot].prof.model][r.item]
	}
	return kindNames[r.kind] + " " + h
}

// missFactor is the scale factor of the n-th cache-missing prediction.
func (w *serveWorkload) missFactor(n int) float64 { return w.missBase + float64(n)*1e-6 }

func (w *serveWorkload) missParams(r request) serve.Params {
	return serve.Params{ScaleTarget: scaleTargets[w.hot[r.hot].prof.model], ScaleFactor: w.missFactor(r.miss)}
}

// do sends one request in a span and records its answer.
func (w *serveWorkload) do(r request, tr *tracer) bool {
	s := tr.begin(kindSpans[r.kind], int(w.ops.Add(1)), false)
	vals, err := w.call(r)
	tr.end(s)
	if err != nil || len(vals) > maxAnswerVals {
		return false
	}
	a := serveAnswer{req: r}
	a.n = copy(a.vals[:], vals)
	w.mu.Lock()
	if !w.tampered && w.cfg.tamper != nil && checked(r) {
		a.vals[0] = w.cfg.tamper(a.vals[0])
		w.tampered = true
	}
	w.answers = append(w.answers, a)
	w.mu.Unlock()
	return true
}

// call sends one request and returns the numbers its answer carries.
func (w *serveWorkload) call(r request) ([]int64, error) {
	h := &w.hot[r.hot]
	base := "/v1/baselines/" + h.id
	switch r.kind {
	case kindUpload:
		var resp serve.UploadResponse
		if err := w.post("/v1/baselines", w.blobs[r.item], &resp); err != nil {
			return nil, err
		}
		return []int64{int64(resp.Tasks), int64(resp.Edges), resp.BaselineNS}, nil
	case kindPredictMiss, kindPredictHit:
		body := []byte(nil)
		if r.kind == kindPredictHit {
			body = h.hitBodies[r.item]
		} else {
			p := w.missParams(r)
			var err error
			if body, err = json.Marshal(serve.PredictRequest{Opt: "scale", Params: &p}); err != nil {
				return nil, err
			}
		}
		var resp serve.PredictResponse
		if err := w.post(base+"/predict", body, &resp); err != nil {
			return nil, err
		}
		return []int64{resp.PredictedNS}, nil
	case kindSweep:
		var resp serve.SweepResponse
		if err := w.post(base+"/sweep", h.sweepBody, &resp); err != nil {
			return nil, err
		}
		vals := make([]int64, len(resp.Rows))
		for i, row := range resp.Rows {
			if row.Error != "" {
				return nil, fmt.Errorf("sweep row %s: %s", row.Opt, row.Error)
			}
			vals[i] = row.PredictedNS
		}
		return vals, nil
	case kindMemory:
		var resp serve.MemoryResponse
		if err := w.get(base+"/memory", &resp); err != nil {
			return nil, err
		}
		return []int64{resp.PeakBytes}, nil
	}
	return nil, fmt.Errorf("unknown request kind %d", r.kind)
}

// openLoop sends requests at seeded Poisson arrival times over d, each
// connection taking the next due request as soon as it is free. A request
// that fell due while its connection was still busy waited in the queue
// and is timed from when it was due. One that a free connection slept
// until is timed from when it was sent: the sleep's overshoot, up to a
// millisecond with the runtime's timers, is the generator's own lateness
// and is reported apart.
func (w *serveWorkload) openLoop(d time.Duration, trs []*tracer) []serveSample {
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(w.arrivals.ExpFloat64() / serveRate * float64(time.Second))
		if t >= d {
			break
		}
		due = append(due, t)
	}
	reqs := make([]request, len(due))
	for i := range reqs {
		reqs[i] = w.nextRequest()
	}
	out := make([]serveSample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, tr := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(due); k = int(next.Add(1)) - 1 {
				at := start.Add(due[k])
				queued := !time.Now().Before(at)
				time.Sleep(time.Until(at))
				sent := time.Now()
				from := sent
				if queued {
					from = at
				}
				ok := w.do(reqs[k], tr)
				out[k] = serveSample{kind: reqs[k].kind, lat: time.Since(from), late: sent.Sub(at), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop sends requests back to back on every connection for d and
// returns every request's latency and how many failed.
func (w *serveWorkload) closedLoop(d time.Duration, trs []*tracer) (lat []time.Duration, failed int, elapsed time.Duration) {
	lats := make([][]time.Duration, len(trs))
	fails := make([]int, len(trs))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c, tr := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t0 := start; t0.Before(deadline); t0 = time.Now() {
				if !w.do(w.nextRequest(), tr) {
					fails[c]++
				}
				lats[c] = append(lats[c], time.Since(t0))
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, f := range fails {
		failed += f
	}
	return slices.Concat(lats...), failed, elapsed
}

func (w *serveWorkload) stats() (serve.StatsResponse, error) {
	var s serve.StatsResponse
	err := w.get("/statsz", &s)
	return s, err
}

// run spends half of d in the open loop and half in the closed loop.
func (w *serveWorkload) run(d time.Duration, traced bool) phase {
	trs := make([]*tracer, serveConns)
	if traced {
		for c := range trs {
			trs[c] = newTracer(c, processStart)
		}
	}
	before, errBefore := w.stats()
	open := w.openLoop(d/2, trs)
	lat, failed, elapsed := w.closedLoop(d/2, trs)
	after, errAfter := w.stats()

	ph := phase{done: len(lat) - failed, elapsed: elapsed, lat: lat, attempted: len(open) + len(lat), failed: failed}
	var byKind [numKinds][]time.Duration
	var late []time.Duration
	for _, s := range open {
		late = append(late, s.late)
		byKind[s.kind] = append(byKind[s.kind], s.lat)
		if !s.ok {
			ph.failed++
		}
	}
	if err := errors.Join(errBefore, errAfter); err != nil {
		ph.attempted++
		ph.failed++
		return ph
	}
	if traced {
		ph.tracers = trs
		ph.layer = map[string]float64{"loadgen.late_ms_p99": percentileMS(late, 0.99)}
		for k := range byKind {
			ph.layer["serve."+kindNames[k]+".ms_p50"] = percentileMS(byKind[k], 0.50)
		}
		hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
		ph.layer["serve.cache_hit.ratio"] = float64(hits) / float64(max(hits+misses, 1))
		ph.layer["serve.coalesced.count"] = float64(after.Coalesced - before.Coalesced)
		ph.layer["serve.rejected.count"] = float64(after.Rejected - before.Rejected)
		ph.layer["serve.evicted.count"] = float64(after.Evictions - before.Evictions)
	}
	return ph
}

// verify checks every answer against the same question answered in
// process: uploads against an in-memory build of the trace, predictions
// and sweep rows against a patch simulation, memory reads against the
// baseline's profile. Every verifyMissEvery-th cache-missing prediction
// is checked; the rest are unique and would each cost a simulation.
func (w *serveWorkload) verify() (int, string, error) {
	var lines []string
	uploads := make([][]int64, len(w.pool))
	for i, p := range w.pool {
		g, err := p.graph()
		if err != nil {
			return 0, "", err
		}
		res, err := g.Simulate()
		if err != nil {
			return 0, "", err
		}
		uploads[i] = []int64{int64(g.NumTasks()), int64(g.NumEdges()), int64(res.Makespan)}
		lines = append(lines, fmt.Sprintf("upload %s %v", p.key(), uploads[i]))
	}
	graphs := make([]*core.Graph, len(w.hot))
	hits := make([][]int64, len(w.hot))
	grids := make([][]int64, len(w.hot))
	peaks := make([]int64, len(w.hot))
	for i := range w.hot {
		h := &w.hot[i]
		g, err := h.prof.graph()
		if err != nil {
			return 0, "", err
		}
		graphs[i] = g
		model := h.prof.model
		for _, expr := range serveHotQuestions[model] {
			v, err := inProcess(g, expr, h.params)
			if err != nil {
				return 0, "", fmt.Errorf("%s on %s: %w", expr, h.prof.key(), err)
			}
			hits[i] = append(hits[i], v)
		}
		for _, expr := range serveGrids[model] {
			v, err := inProcess(g, expr, h.params)
			if err != nil {
				return 0, "", fmt.Errorf("%s on %s: %w", expr, h.prof.key(), err)
			}
			grids[i] = append(grids[i], v)
		}
		res, err := g.Simulate()
		if err != nil {
			return 0, "", err
		}
		ann, err := mem.AnnotationOf(g)
		if err != nil {
			return 0, "", err
		}
		prof, err := mem.ComputeProfile(g, res, ann)
		if err != nil {
			return 0, "", err
		}
		peaks[i] = prof.Device(mem.DeviceGPU).Peak
		lines = append(lines, fmt.Sprintf("hot %s %v %v %d", h.prof.key(), hits[i], grids[i], peaks[i]))
	}

	mismatches := 0
	for _, a := range w.answers {
		if !checked(a.req) {
			continue
		}
		var want []int64
		switch a.req.kind {
		case kindUpload:
			want = uploads[a.req.item]
		case kindPredictHit:
			want = hits[a.req.hot][a.req.item : a.req.item+1]
		case kindSweep:
			want = grids[a.req.hot]
		case kindMemory:
			want = peaks[a.req.hot : a.req.hot+1]
		case kindPredictMiss:
			v, err := inProcess(graphs[a.req.hot], "scale", w.missParams(a.req))
			if err != nil {
				return 0, "", err
			}
			want = []int64{v}
		}
		if !slices.Equal(a.vals[:a.n], want) {
			mismatches++
		}
	}
	return mismatches, digest(lines), nil
}

// inProcess answers a prediction request without the server.
func inProcess(g *core.Graph, expr string, p serve.Params) (int64, error) {
	opt, err := whatif.ParseStack(expr, optParams(p))
	if err != nil {
		return 0, err
	}
	v, err := patchAnswer(g, opt)
	return int64(v), err
}

func (w *serveWorkload) trail() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	keys := make([]string, len(w.sent))
	for i, r := range w.sent {
		keys[i] = w.requestKey(r)
	}
	return keys
}
