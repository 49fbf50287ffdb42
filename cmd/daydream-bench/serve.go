package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"daydream"
	"daydream/internal/serve"
)

// serveBench hosts an in-process prediction server on a real localhost
// TCP listener, so the Serve* micro benchmarks measure the full request
// path — kernel sockets, HTTP framing, JSON, admission, cache,
// simulation — not a handler called in a vacuum.
type serveBench struct {
	srv    *daydream.Server
	hs     *http.Server
	ln     net.Listener
	url    string
	client *http.Client
	baseID string
	seq    atomic.Int64
}

func startServeBench(traceJSON []byte, clients int) (*serveBench, error) {
	srv := daydream.NewServer(daydream.ServeConfig{
		// One queue slot per client beyond the workers: the harness is
		// a closed loop, so admission should never shed.
		QueueDepth: 2 * clients,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sb := &serveBench{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		ln:     ln,
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{},
	}
	go func() { _ = sb.hs.Serve(ln) }()

	resp, err := sb.client.Post(sb.url+"/v1/baselines", "application/json", bytes.NewReader(traceJSON))
	if err != nil {
		sb.close()
		return nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		sb.close()
		return nil, fmt.Errorf("serve bench upload: status %d: %s", resp.StatusCode, body)
	}
	var up serve.UploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		sb.close()
		return nil, err
	}
	sb.baseID = up.ID
	return sb, nil
}

func (sb *serveBench) close() {
	ctx, cancel := timeoutContext(5 * time.Second)
	defer cancel()
	_ = sb.hs.Shutdown(ctx)
	_ = sb.srv.Shutdown(ctx)
}

// post fires one request and fails on anything but 200.
func (sb *serveBench) post(path string, body []byte) error {
	resp, err := sb.client.Post(sb.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, data)
	}
	return nil
}

// predictUnique asks a never-before-seen scenario — a COZ-style scale
// of the pointwise elementwise kernels, the largest kernel family in
// the BERT profile, whose factor encodes a global sequence number — so
// every request misses the cache and pays for a real simulation. The
// wide match rides the dense overlay tier: its delta cone would cover
// nearly the whole graph, where a full replay is cheaper than an
// incremental resimulation.
func (sb *serveBench) predictUnique() error {
	n := sb.seq.Add(1)
	body := fmt.Sprintf(
		`{"opt":"scale","params":{"scale_target":"Pointwise","scale_factor":%.9f}}`,
		0.5+float64(n)*1e-9)
	return sb.post("/v1/baselines/"+sb.baseID+"/predict", []byte(body))
}

// predictCached repeats one constant scenario: after the first miss,
// every request is a cache hit.
func (sb *serveBench) predictCached() error {
	return sb.post("/v1/baselines/"+sb.baseID+"/predict", []byte(`{"opt":"amp"}`))
}

// sweepGridSize rows per ServeSweep request: every registry entry that
// succeeds on a single-GPU BERT profile, plus two stacks.
const sweepGridSize = 8

func (sb *serveBench) sweepGrid() error {
	body := `{"opts":["amp","fusedadam","reconbn","reconbn-removal","upgrade","scale","amp+fusedadam","amp+reconbn"],` +
		`"params":{"from_device":"2080ti","to_device":"v100","scale_target":"sgemm","scale_factor":0.5}}`
	return sb.post("/v1/baselines/"+sb.baseID+"/sweep", []byte(body))
}
