package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// matchStdlib requires the parser and encoding/json to agree on data:
// both accept it or both reject it, with deep-equal traces when they
// accept, and ReadJSON to agree with encoding/json followed by Validate.
func matchStdlib(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := stdlibDecode(data)
	var got Trace
	gotErr := decodeTrace(data, &got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("parser err = %v, encoding/json err = %v", gotErr, wantErr)
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
}

// TestReadJSONKeysMatchStdlib holds the parser's key fast path, which
// compares the bytes at the cursor with the quoted field names in
// field order, to encoding/json on keys that WriteJSON never writes.
func TestReadJSONKeysMatchStdlib(t *testing.T) {
	const kelvin = "\u212a" // the Kelvin sign, which folds to k
	cases := []struct{ name, json string }{
		{"in order", `{"activities":[{"id":1,"name":"k","kind":5,"start":0,"duration":10,"thread":0,"stream":7}]}`},
		{"reversed", `{"activities":[{"stream":7,"thread":0,"duration":10,"start":0,"kind":5,"name":"k","id":1}]}`},
		{"shuffled", `{"gradients":[{"op_kind":"conv","index":2,"layer":"l","bucket":-1,"bytes":8}],"model":"m"}`},
		{"omitted omitempty", `{"activities":[{"id":1,"name":"a","kind":1,"start":0,"duration":1,"thread":1,"stream":0,"correlation":3},` +
			`{"id":2,"name":"b","kind":5,"start":1,"duration":1,"thread":0,"stream":7,"correlation":3,"dir":2},` +
			`{"id":3,"name":"c","kind":8,"start":2,"duration":1,"thread":0,"stream":0,"channel":"nccl","bytes":64}]}`},
		{"only optional", `{"activities":[{"dir":1},{"bytes":2,"dir":3}]}`},
		{"repeated key", `{"activities":[{"id":1,"id":2,"name":"a","name":"b","dir":1,"dir":null}]}`},
		{"repeated array", `{"activities":[{"id":1,"name":"a"},{"id":2}],"activities":[{"name":"b"}],"activities":[{},{},{}]}`},
		{"repeated object key", `{"model":"a","model":"b","layer_spans":[{"end":3,"end":4,"layer":"x"}]}`},
		{"escaped key", `{"activities":[{"\u0069d":4,"n\u0061me":"k","\u0073tream":2}]}`},
		{"escaped slash key", `{"activities":[{"i\/d":4,"\/id":5}]}`},
		{"upper-case key", `{"activities":[{"ID":4,"NAME":"k","Stream":3}],"MODEL":"m"}`},
		{"kelvin key", `{"activities":[{"` + kelvin + `ind":5,"id":9}]}`},
		{"long-s key", `{"activities":[{"\u017ftart":5,"id":9},{"` + "\u017f" + `tart":6,"id":8}]}`},
		{"exact beats fold", `{"activities":[{"ID":4,"id":5,"ID":6}]}`},
		{"prefix keys", `{"activities":[{"idx":5,"i":3,"id":1,"names":"x","nam":"y","name":"z"}]}`},
		{"extended keys", `{"activities":[{"id_":5,"start_":3,"streams":[1],"id":2}],"models":"m","model":"n"}`},
		{"key as value", `{"activities":[{"name":"id","id":7},{"name":"\"id\"","id":8}]}`},
		{"whitespace before colon", "{\"activities\" :[{\"id\"\t:1,\"name\"\n: \"k\" ,\"kind\"\r\n:5}] }"},
		{"whitespace inside key", `{"activities":[{" id":1,"id ":2,"id":3}]}`},
		{"unknown keys", `{"extra":{"a":[1,2,{"b":null}],"c":"d"},"activities":[{"x":true,"id":1,"y":[],"z":{}}],"w":-1.5e3}`},
		{"unknown key near end", `{"activities":[{"id":1,"q":0}]}`},
		{"empty key", `{"":1,"activities":[{"":"x","id":1}]}`},
		{"trailing comma in record", `{"activities":[{"id":1,}]}`},
		{"trailing comma in array", `{"activities":[{"id":1},]}`},
		{"trailing comma in trace", `{"model":"m",}`},
		{"missing colon", `{"activities":[{"id" 1}]}`},
		{"truncated after key", `{"activities":[{"id"`},
		{"truncated in key", `{"activities":[{"i`},
		{"truncated quoted name", `{"activities":[{"name`},
		{"unquoted key", `{"activities":[{id:1}]}`},
		{"wrong type", `{"activities":[{"id":"1"}]}`},
		{"null record", `{"activities":[null,{"id":1},null]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			matchStdlib(t, []byte(c.json))
		})
	}
}

// TestArraySizingBounded checks the bound on how much room array makes
// from an estimate: tiny records followed by one long skipped value must
// not turn into a slice sized for the long value's bytes at the tiny
// records' rate (about 35 times the input here). The slice may take at
// most twice the input, and a whole ReadJSON call at most three times
// the input: its read buffer plus that slice.
func TestArraySizingBounded(t *testing.T) {
	// Enough records that the slice outgrows its capacity past
	// sizeAfter, whatever size class append rounds it up to.
	const tiny = 2 * sizeAfter
	var b strings.Builder
	b.WriteString(`{"activities":[`)
	for range tiny {
		b.WriteString(`{},`)
	}
	b.WriteString(`{"pad":"` + strings.Repeat("x", 1<<20) + `"}]}`)
	data := []byte(b.String())

	var tr Trace
	if err := decodeTrace(data, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Activities) != tiny+1 {
		t.Fatalf("decoded %d activities, want %d", len(tr.Activities), tiny+1)
	}
	if room := cap(tr.Activities) * int(unsafe.Sizeof(Activity{})); room > 2*len(data) {
		t.Fatalf("activity slice takes %d bytes for a %d-byte input, want at most twice the input", room, len(data))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadJSON(bytes.NewReader(data)); err == nil {
		t.Fatal("ReadJSON accepted activities that share ID 0")
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > uint64(3*len(data)) {
		t.Fatalf("ReadJSON allocated %d bytes for a %d-byte input, want at most three times the input", n, len(data))
	}
}
