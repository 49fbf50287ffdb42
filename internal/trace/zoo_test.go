package trace_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/trace"
)

// zooTraceJSON profiles one zoo model and returns its trace as written
// by WriteJSON.
func zooTraceJSON(tb testing.TB, model string) []byte {
	tb.Helper()
	m, err := dnn.ByName(model)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := framework.Run(framework.Config{Model: m, CollectTrace: true})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadJSONMatchesStdlibOnZoo decodes every zoo model's trace with
// ReadJSON and with encoding/json and requires identical traces.
func TestReadJSONMatchesStdlibOnZoo(t *testing.T) {
	for _, model := range dnn.Names() {
		t.Run(model, func(t *testing.T) {
			data := zooTraceJSON(t, model)
			got, err := trace.ReadJSON(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var want trace.Trace
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*got, want) {
				t.Fatal("ReadJSON and encoding/json decode the trace differently")
			}
		})
	}
}

// BenchmarkReadJSON decodes and validates the bert-large trace, the
// largest in the zoo.
func BenchmarkReadJSON(b *testing.B) {
	data := zooTraceJSON(b, "bert-large")
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := trace.ReadJSON(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
