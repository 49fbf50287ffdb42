package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer, or one whole op around such calls.
type span struct {
	name   string
	op     int
	parent int // index of the enclosing span in the same tracer, -1 at top level
	start  time.Duration
	end    time.Duration
	// allocs counts heap objects allocated during the span, -1 when the
	// span was not asked to count them.
	allocs int64
}

// tracer records spans for one goroutine, in memory; they are written out
// when the run ends. A nil *tracer records nothing, so untraced runs pay
// one nil check per boundary.
type tracer struct {
	tid   int
	epoch time.Time
	spans []span
	open  []int
	// allocSample reads the runtime's cumulative heap-object count. It
	// is exact only at span-cache refills, so per-call counts carry a
	// bounded error that vanishes in the mean over many calls.
	allocSample []metrics.Sample
}

func newTracer(tid int, epoch time.Time) *tracer {
	return &tracer{
		tid:         tid,
		epoch:       epoch,
		allocSample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

func (t *tracer) heapObjects() int64 {
	metrics.Read(t.allocSample)
	return int64(t.allocSample[0].Value.Uint64())
}

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string, op int, countAllocs bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	s := span{name: name, op: op, parent: parent, allocs: -1}
	if countAllocs {
		s.allocs = t.heapObjects()
	}
	s.start = time.Since(t.epoch)
	t.spans = append(t.spans, s)
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	s := &t.spans[id]
	s.end = now
	if s.allocs >= 0 {
		s.allocs = t.heapObjects() - s.allocs
	}
	t.open = t.open[:len(t.open)-1]
}

// spanStats aggregates every span of one name.
type spanStats struct {
	calls  int
	total  time.Duration
	self   time.Duration
	allocs int64
}

func (s *spanStats) meanMS() float64 {
	if s == nil || s.calls == 0 {
		return 0
	}
	return float64(s.total) / float64(s.calls) / 1e6
}

func (s *spanStats) meanAllocs() float64 {
	if s == nil || s.calls == 0 {
		return 0
	}
	return float64(s.allocs) / float64(s.calls)
}

// selfShare is the part of the spans' time no child span covers.
func (s *spanStats) selfShare() float64 {
	if s == nil || s.total == 0 {
		return 0
	}
	return float64(s.self) / float64(s.total)
}

// aggregate computes per-name totals and self times — a span's duration
// minus the part its child spans cover — over several tracers.
func aggregate(tracers ...*tracer) map[string]*spanStats {
	out := make(map[string]*spanStats)
	for _, t := range tracers {
		childTime := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				childTime[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			st := out[s.name]
			if st == nil {
				st = &spanStats{}
				out[s.name] = st
			}
			d := s.end - s.start
			st.calls++
			st.total += d
			st.self += d - childTime[i]
			if s.allocs > 0 {
				st.allocs += s.allocs
			}
		}
	}
	return out
}

// chromeEvent is one Chrome Trace Event Format complete event, viewable
// in Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// selfRow is one line of the per-span self-time table written next to the
// Chrome trace.
type selfRow struct {
	Name       string  `json:"name"`
	Calls      int     `json:"calls"`
	TotalMS    float64 `json:"total_ms"`
	SelfMS     float64 `json:"self_ms"`
	MeanMS     float64 `json:"mean_ms"`
	MeanAllocs float64 `json:"mean_allocs,omitempty"`
}

// writeTraceFiles writes the spans as <workload>.trace.json (Chrome Trace
// Event JSON) and the per-span self times plus the tracing overhead as
// <workload>.self.json under dir.
func writeTraceFiles(dir, workload string, overhead float64, tracers []*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var events []chromeEvent
	for _, t := range tracers {
		for i, s := range t.spans {
			args := map[string]any{"op": s.op, "id": i, "parent": s.parent}
			if s.allocs >= 0 {
				args["allocs"] = s.allocs
			}
			events = append(events, chromeEvent{
				Name: s.name, Ph: "X", PID: 1, TID: t.tid,
				TS:   float64(s.start) / 1e3,
				Dur:  float64(s.end-s.start) / 1e3,
				Args: args,
			})
		}
	}
	if err := writeJSONFile(filepath.Join(dir, workload+".trace.json"),
		map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	agg := aggregate(tracers...)
	rows := make([]selfRow, 0, len(agg))
	for name, st := range agg {
		rows = append(rows, selfRow{
			Name:       name,
			Calls:      st.calls,
			TotalMS:    float64(st.total) / 1e6,
			SelfMS:     float64(st.self) / 1e6,
			MeanMS:     st.meanMS(),
			MeanAllocs: st.meanAllocs(),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return writeJSONFile(filepath.Join(dir, workload+".self.json"),
		map[string]any{"workload": workload, "trace_overhead_share": overhead, "spans": rows})
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
