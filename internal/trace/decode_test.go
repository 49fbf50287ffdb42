package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// stdlibDecode is the reference ReadJSON's parser must agree with: the
// reflective encoding/json decoder over the same schema.
func stdlibDecode(data []byte) (Trace, error) {
	var t Trace
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&t)
	return t, err
}

// FuzzReadJSONMatchesStdlib holds the schema-specific parser to
// encoding/json: for any input both accept or both reject, an accepted
// input decodes to deep-equal traces, and ReadJSON accepts exactly what
// the reference decodes and Validate passes.
//
// The seed corpus under testdata/fuzz/FuzzReadJSONMatchesStdlib holds
// one input per encoding/json behaviour the parser reproduces; it runs
// on every `go test`, and `go test -fuzz=FuzzReadJSONMatchesStdlib`
// explores beyond it.
func FuzzReadJSONMatchesStdlib(f *testing.F) {
	f.Add([]byte(`{"model":"m","activities":[{"id":1,"name":"k","kind":5,"start":0,"duration":10,"stream":7}]}`))
	f.Add([]byte(`{"activities":[{"id":1},{"id":2}],"activities":[{"id":3}],"activities":[{},{}]}`))
	f.Add([]byte(`{"gradients":[{"layer":"l","index":1,"bytes":8,"bucket":-1,"act_bytes":4,"op_kind":"conv"}],"layer_spans":[{"layer":"l","phase":1,"end":3}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := stdlibDecode(data)
		var got Trace
		gotErr := decodeTrace(data, &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("parser err = %v, encoding/json err = %v", gotErr, wantErr)
		}
		if gotErr != nil && !errors.Is(gotErr, ErrMalformed) {
			t.Fatalf("parser rejection %v is not ErrMalformed", gotErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("parser decoded\n%#v\nencoding/json decoded\n%#v", got, want)
		}

		tr, err := ReadJSON(bytes.NewReader(data))
		if wantErr == nil {
			wantErr = want.Validate()
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadJSON err = %v, reference err = %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(*tr, want) {
			t.Fatalf("ReadJSON returned\n%#v\nwant\n%#v", *tr, want)
		}
	})
}

func TestReadJSONErrorGivesOffset(t *testing.T) {
	_, err := ReadJSON(strings.NewReader(`{"model":"m",}`))
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
	if !strings.Contains(err.Error(), "offset 13") {
		t.Fatalf("err = %q, want the offset of the stray '}'", err)
	}
}

// TestReadJSONStringsDoNotAliasInput checks that decoded strings are
// copies: overwriting the input after the decode leaves them intact.
func TestReadJSONStringsDoNotAliasInput(t *testing.T) {
	data := []byte(`{"model":"bert","activities":[{"id":1,"name":"sgemm","kind":0,"thread":1}]}`)
	tr, err := ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'x'
	}
	if tr.Model != "bert" || tr.Activities[0].Name != "sgemm" {
		t.Fatalf("strings changed with the input: model %q, name %q", tr.Model, tr.Activities[0].Name)
	}
}
