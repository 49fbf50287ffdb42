package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// WriteJSON serializes the trace to w as indented JSON. The format is
// stable and self-contained so traces can be collected once and analyzed
// offline, mirroring the paper's collect-once/ask-many workflow (§7.1).
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// ReadJSON parses a trace previously written with WriteJSON and validates
// it.
//
// It reads r to the end and decodes the first JSON value with a parser
// written for the trace schema. The parser accepts exactly the inputs
// that json.NewDecoder(r).Decode(&t) accepts into a Trace, and produces
// the same Trace for each:
//
//   - only the first value is decoded and any bytes after it are
//     ignored; a top-level null gives an empty trace, and any top-level
//     value other than an object or null is rejected;
//   - a key matches a field by its exact tag name, else by encoding/json's
//     case folding (so "ID", "Kind" with a Kelvin sign and "ſtart" match);
//     keys are unescaped first;
//   - values of unknown keys are skipped but must be valid JSON, nested
//     at most 10000 levels deep in all;
//   - null leaves a scalar field as it is and sets an array to nil; []
//     gives an empty, non-nil slice; a null array element leaves the
//     element as it is;
//   - a repeated key decodes into the value already there, so a repeated
//     array merges element by element into the earlier one;
//   - integer fields take exactly the literals strconv.ParseInt (or
//     ParseUint, for the correlation) accepts in base 10: no fraction,
//     no exponent, no overflow;
//   - invalid UTF-8 and unpaired surrogate escapes in strings become
//     U+FFFD; raw control characters are rejected.
//
// Keys are matched on a fast path first. WriteJSON writes a record's keys
// in field order, so the parser compares the bytes at the cursor with the
// quoted name of the field expected next, then with the other fields'
// quoted names. A match includes both quotes, so it is exactly the key
// the stdlib would unquote and match by tag name ("idx" never matches
// "id"); any other key (escaped, case-folded, unknown) takes the general
// path of unescaping and folding, which decides as encoding/json does.
// A long array is sized once from the bytes its first elements took, at
// no more than one element per 64 unread input bytes, so a small input
// cannot ask for a large slice. A *bytes.Reader or *bytes.Buffer is
// decoded in place; other readers are read into one buffer first.
//
// Bytes that do not decode into the schema — invalid JSON, or values
// like NaN/Inf/fractional timestamps that cannot land in the integer
// time fields — and a failing reader fail with ErrMalformed, whose
// message gives the byte offset of the fault; a decodable trace that
// violates the structural invariants fails with the Validate taxonomy
// (ErrNegativeTime, ErrTimeOverflow, ErrDuplicateID, ErrBadCorrelation,
// ErrSpanInverted). Arbitrary input can therefore produce an error but
// never a panic or a half-validated trace. The returned trace holds
// copies of its strings, not references into the input.
func ReadJSON(r io.Reader) (*Trace, error) {
	t, err := ReadJSONUnvalidated(r)
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadJSONUnvalidated is ReadJSON without the final Validate: it fails
// only with ErrMalformed, and the trace it returns may break the
// structural invariants. It is for callers that validate the trace
// themselves before using it, as core.Build does, so that an upload is
// validated once.
func ReadJSONUnvalidated(r io.Reader) (*Trace, error) {
	t := new(Trace)
	switch r.(type) {
	case *bytes.Reader, *bytes.Buffer:
		// Both hand their unread bytes to one Write call, which
		// decodes them in place instead of copying them out first.
		w := decodeWriter{t: t}
		r.(io.WriterTo).WriteTo(&w) // fails only if Write does, and it does not
		if !w.wrote {
			w.err = decodeTrace(nil, t)
		}
		if w.err != nil {
			return nil, w.err
		}
		return t, nil
	}
	buf, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: read: %w", ErrMalformed, err)
	}
	if err := decodeTrace(buf, t); err != nil {
		return nil, err
	}
	return t, nil
}

// decodeWriter decodes the bytes of its first Write into t. It keeps no
// reference to them once Write returns: the decoded trace's strings are
// copies.
type decodeWriter struct {
	t     *Trace
	wrote bool
	err   error
}

func (w *decodeWriter) Write(p []byte) (int, error) {
	if w.wrote {
		// bytes.Reader and bytes.Buffer write once; any later bytes
		// would follow the first JSON value, which is all that counts.
		return len(p), nil
	}
	w.wrote = true
	w.err = decodeTrace(p, w.t)
	return len(p), nil
}

// readAll reads r to the end into one buffer, sized up front when r
// reports how many bytes it holds (strings.Reader, for one).
func readAll(r io.Reader) ([]byte, error) {
	size := 512
	if l, ok := r.(interface{ Len() int }); ok {
		// One spare byte lets the read that reports EOF land without
		// growing the buffer.
		size = l.Len() + 1
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// maxDepth is encoding/json's nesting limit: no value may sit inside
// more than this many arrays and objects, the top-level object included.
const maxDepth = 10000

// decoder is a single forward pass over a trace's bytes.
type decoder struct {
	buf []byte
	pos int
	// str holds the unescaped bytes of a string that needed unescaping;
	// fold holds a case-folded key. Both are reused across calls.
	str, fold []byte
	// names interns field strings, so a name repeated across records
	// is allocated once per trace; recent caches the last name interned
	// in each slot, so most repeats skip the map.
	names  map[string]string
	recent [internSlots]string
}

// internSlots is the number of slots in the decoder's intern cache.
const internSlots = 64

// decodeTrace decodes the first JSON value in buf into t.
func decodeTrace(buf []byte, t *Trace) error {
	d := &decoder{buf: buf, names: make(map[string]string)}
	d.ws()
	return d.traceObject(t)
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: offset %d: %s", ErrMalformed, d.pos, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at the current position (or the end of
// the input) as out of place in the given context.
func (d *decoder) unexpected(context string) error {
	if d.pos >= len(d.buf) {
		return d.errorf("unexpected end of input %s", context)
	}
	return d.errorf("invalid character %q %s", d.buf[d.pos], context)
}

// wsBits has bit c set for each JSON whitespace byte c.
const wsBits = 1<<' ' | 1<<'\n' | 1<<'\t' | 1<<'\r'

// ws skips JSON whitespace.
func (d *decoder) ws() {
	buf, i := d.buf, d.pos
	for i < len(buf) && buf[i] <= ' ' && wsBits&(uint64(1)<<buf[i]) != 0 {
		i++
	}
	d.pos = i
}

// peek returns the byte at the current position, or 0 at the end.
func (d *decoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// literal consumes the keyword lit (true, false or null).
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.pos >= len(d.buf) || d.buf[d.pos] != lit[i] {
			return d.unexpected("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

// mismatch rejects a well-placed value of the wrong JSON type for the
// field being decoded.
func (d *decoder) mismatch(want string) error {
	if d.pos >= len(d.buf) {
		return d.unexpected("looking for beginning of value")
	}
	return d.errorf("cannot decode %q into %s", d.buf[d.pos], want)
}

// string reads the string whose opening quote is at the current position
// and returns its unescaped bytes, which alias d.buf or d.str and are
// valid until the next string is read.
func (d *decoder) string() ([]byte, error) {
	buf := d.buf
	start := d.pos + 1
	i := plainEnd(buf, start)
	if i == len(buf) {
		d.pos = i
		return nil, d.unexpected("in string literal")
	}
	if buf[i] == '"' {
		d.pos = i + 1
		return buf[start:i], nil
	}
	d.pos = i
	return d.unescape(start)
}

// Byte-lane masks for scanning eight bytes at a time.
const (
	lanes    = 0x0101010101010101
	laneHigh = 0x8080808080808080
)

// plainEnd returns the index of the first byte at or after i that ends a
// run of plain string bytes — a quote, a backslash, a control character
// or a non-ASCII byte — or len(buf) if there is none.
func plainEnd(buf []byte, i int) int {
	for ; i+8 <= len(buf); i += 8 {
		if m := stopBytes(binary.LittleEndian.Uint64(buf[i:])); m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(buf); i++ {
		if c := buf[i]; c == '"' || c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			return i
		}
	}
	return i
}

// stopBytes flags, in the high bit of its byte lane, each byte of the
// little-endian word w that plainEnd stops at. A subtraction's borrow can
// flag a lane above a flagged one too, so only the lowest flag is exact.
func stopBytes(w uint64) uint64 {
	quote := w ^ (lanes * '"')
	slash := w ^ (lanes * '\\')
	return ((quote-lanes)&^quote | (slash-lanes)&^slash | (w-lanes*' ')&^w | w) & laneHigh
}

// unescape finishes a string from the current position, with the bytes
// from start already known to be plain ASCII, the way encoding/json
// unquotes: escapes are decoded, a surrogate escape that does not pair
// and each byte of invalid UTF-8 become U+FFFD.
func (d *decoder) unescape(start int) ([]byte, error) {
	out := append(d.str[:0], d.buf[start:d.pos]...)
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.str = out
			return out, nil
		case c == '\\':
			if d.pos+1 >= len(d.buf) {
				d.pos++
				return nil, d.unexpected("in string escape code")
			}
			switch e := d.buf[d.pos+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := d.hex4(d.pos)
				if r < 0 {
					return nil, d.errorf("invalid \\u escape")
				}
				d.pos += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, d.hex4(d.pos)); dec != unicode.ReplacementChar {
						r = dec
						d.pos += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.pos++
				return nil, d.unexpected("in string escape code")
			}
			d.pos += 2
		case c < ' ':
			return nil, d.unexpected("in string literal")
		case c < utf8.RuneSelf:
			out = append(out, c)
			d.pos++
		default:
			r, n := utf8.DecodeRune(d.buf[d.pos:])
			out = utf8.AppendRune(out, r)
			d.pos += n
		}
	}
	return nil, d.unexpected("in string literal")
}

// hex4 decodes the \uXXXX escape at i, or returns -1 if there is none.
func (d *decoder) hex4(i int) rune {
	if i+6 > len(d.buf) || d.buf[i] != '\\' || d.buf[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range d.buf[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// text decodes a string field: a string replaces it, a null leaves it.
func (d *decoder) text(p *string) error {
	switch d.peek() {
	case '"':
		b, err := d.string()
		if err != nil {
			return err
		}
		*p = d.intern(b)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("a string")
}

// intern returns b as a string shared by every equal name in the trace.
func (d *decoder) intern(b []byte) string {
	slot := &d.recent[internSlot(b)]
	if *slot == string(b) {
		return *slot
	}
	s, ok := d.names[string(b)]
	if !ok {
		s = string(b)
		d.names[s] = s
	}
	*slot = s
	return s
}

// internSlot picks b's slot in the intern cache from its length and
// three of its bytes.
func internSlot(b []byte) int {
	n := len(b)
	if n == 0 {
		return 0
	}
	h := uint(n)*0x9e37 ^ uint(b[0])*31 ^ uint(b[n/2])*7 ^ uint(b[n-1])
	return int(h % internSlots)
}

// digits reads the integer part of a number literal at the current
// position: an optional minus sign, then 0 or a digit run not starting
// with 0. It returns the sign and magnitude, with ok false if the
// magnitude does not fit in a uint64.
func (d *decoder) digits() (neg bool, u uint64, ok bool, err error) {
	if d.peek() == '-' {
		neg = true
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
		return neg, 0, true, nil
	case '1' <= c && c <= '9':
	default:
		return neg, 0, false, d.unexpected("in numeric literal")
	}
	buf, start := d.buf, d.pos
	i := start
	for ; i < len(buf) && '0' <= buf[i] && buf[i] <= '9'; i++ {
		u = u*10 + uint64(buf[i]-'0')
	}
	d.pos = i
	if i-start < 20 {
		// Nineteen digits never overflow.
		return neg, u, true, nil
	}
	u = 0
	for _, c := range buf[start:i] {
		dig := uint64(c - '0')
		if u > (math.MaxUint64-dig)/10 {
			return neg, u, false, nil
		}
		u = u*10 + dig
	}
	return neg, u, true, nil
}

// integer reads a number literal into an integer field: a sign, digits,
// no fraction or exponent. Anything after the digits that continues the
// literal is rejected, as strconv's base-10 parsers or the JSON grammar
// (leading zeros) would reject it.
func (d *decoder) integer() (neg bool, u uint64, err error) {
	start := d.pos
	neg, u, ok, err := d.digits()
	if err != nil {
		return false, 0, err
	}
	switch d.peek() {
	case '.', 'e', 'E':
		return false, 0, d.errorf("number is not an integer")
	case '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return false, 0, d.unexpected("after a leading zero")
	}
	if !ok {
		return false, 0, d.errorf("number %s overflows", d.buf[start:d.pos])
	}
	return neg, u, nil
}

// signed decodes a signed integer field; a null leaves it.
func signed[T ~int | ~int64](d *decoder, p *T) error {
	switch c := d.peek(); {
	case c == '-' || '0' <= c && c <= '9':
	case c == 'n':
		return d.literal("null")
	default:
		return d.mismatch("an integer")
	}
	start := d.pos
	neg, u, err := d.integer()
	if err != nil {
		return err
	}
	var n int64
	switch {
	case !neg && u <= math.MaxInt64:
		n = int64(u)
	case neg && u <= 1<<63:
		n = int64(-u)
	default:
		return d.errorf("number %s overflows", d.buf[start:d.pos])
	}
	if int64(T(n)) != n {
		return d.errorf("number %s overflows", d.buf[start:d.pos])
	}
	*p = T(n)
	return nil
}

// unsigned decodes an unsigned integer field; a null leaves it. A minus
// sign is rejected even on zero, as strconv.ParseUint rejects it.
func (d *decoder) unsigned(p *uint64) error {
	switch c := d.peek(); {
	case '0' <= c && c <= '9':
	case c == '-':
		return d.errorf("negative number for an unsigned field")
	case c == 'n':
		return d.literal("null")
	default:
		return d.mismatch("an unsigned integer")
	}
	_, u, err := d.integer()
	if err != nil {
		return err
	}
	*p = u
	return nil
}

// element advances to the next element of an open array, consuming the
// ',' before it and the whitespace around it. It reports false after the
// closing ']'. first marks the call right after the '['.
func (d *decoder) element(first bool) (bool, error) {
	d.ws()
	c := d.peek()
	if c == ']' {
		d.pos++
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, d.unexpected("after array element")
		}
		d.pos++
		d.ws()
	}
	return true, nil
}

// array decodes a JSON array into *s the way encoding/json does: a null
// sets the slice to nil, [] to an empty non-nil slice, and otherwise
// each element decodes into the slice's existing element at its index,
// the slice growing one element at a time within its capacity, then
// truncated to the array's length.
//
// The first time an array of sizeAfter or more elements outgrows its
// slice, the slice is reallocated with room for the rest of the input at
// the bytes per element the array has taken so far, but never at fewer
// than minElementBytes, so that a few tiny elements before a long value
// cannot ask for a slice much larger than the input. Only capacity
// differs from encoding/json's growth, and capacity past the longest
// array decoded stays zero in both.
func array[T any](d *decoder, s *[]T, elem func(*decoder, *T) error) error {
	switch d.peek() {
	case '[':
		d.pos++
	case 'n':
		*s = nil
		return d.literal("null")
	default:
		return d.mismatch("an array")
	}
	v := *s
	start := d.pos
	sized := false
	i := 0
	for ; ; i++ {
		more, err := d.element(i == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		switch {
		case i < len(v):
		case i < cap(v):
			v = v[:i+1]
		default:
			if !sized && i >= sizeAfter {
				sized = true
				per := max((d.pos-start)/i, minElementBytes)
				if n := i + 1 + (len(d.buf)-d.pos)/per; n > cap(v) {
					v = append(make([]T, 0, n), v...)
				}
			}
			var zero T
			v = append(v, zero)
		}
		if err := elem(d, &v[i]); err != nil {
			return err
		}
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return nil
}

const (
	// sizeAfter is how many elements array decodes before it may size
	// a growing slice from the input.
	sizeAfter = 16
	// minElementBytes is the fewest input bytes array assumes each
	// remaining element takes when it sizes a slice. WriteJSON's
	// records take at least 70 (compact) and about 200 (indented), and
	// no record type is larger than 2*minElementBytes in memory, so the
	// room array adds is at most twice the unread input.
	minElementBytes = 64
)

// skip consumes one JSON value of any shape, checking its syntax. depth
// is the number of arrays and objects the value sits in.
func (d *decoder) skip(depth int) error {
	var open []byte // the containers entered and not yet closed, '{' or '['
	first := false  // the innermost container was entered just now
	for {
		if len(open) > 0 {
			// Step to the innermost container's next value, or close it.
			var more bool
			var err error
			if open[len(open)-1] == '{' {
				_, more, err = d.key(noFields, unknownField, first)
			} else {
				more, err = d.element(first)
			}
			if err != nil {
				return err
			}
			first = false
			if !more {
				if open = open[:len(open)-1]; len(open) == 0 {
					return nil
				}
				continue
			}
		}
		var err error
		switch c := d.peek(); {
		case c == '{' || c == '[':
			if depth+len(open) >= maxDepth {
				return d.errorf("exceeded max depth")
			}
			open = append(open, c)
			d.pos++
			first = true
			continue
		case c == '"':
			_, err = d.string()
		case c == 't':
			err = d.literal("true")
		case c == 'f':
			err = d.literal("false")
		case c == 'n':
			err = d.literal("null")
		case c == '-' || '0' <= c && c <= '9':
			err = d.skipNumber()
		default:
			err = d.unexpected("looking for beginning of value")
		}
		if err != nil || len(open) == 0 {
			return err
		}
	}
}

// skipNumber consumes a number literal: integer part, optional fraction,
// optional exponent.
func (d *decoder) skipNumber() error {
	if _, _, _, err := d.digits(); err != nil {
		return err
	}
	if d.peek() == '.' {
		d.pos++
		if err := d.digitRun("after decimal point in numeric literal"); err != nil {
			return err
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if err := d.digitRun("in exponent of numeric literal"); err != nil {
			return err
		}
	}
	return nil
}

// digitRun consumes one or more decimal digits.
func (d *decoder) digitRun(context string) error {
	start := d.pos
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
	}
	if d.pos == start {
		return d.unexpected(context)
	}
	return nil
}

// fields lists a struct's JSON names in field order, with their quoted
// and case-folded forms.
type fields struct {
	names, quoted, folded []string
}

func newFields(names ...string) *fields {
	f := &fields{names: names}
	for _, n := range names {
		f.quoted = append(f.quoted, `"`+n+`"`)
		f.folded = append(f.folded, string(appendFold(nil, []byte(n))))
	}
	return f
}

var (
	traceFields = newFields("model", "framework", "device", "batch_size", "precision",
		"iteration_time", "activities", "layer_spans", "gradients")
	activityFields = newFields("id", "name", "kind", "start", "duration", "thread",
		"stream", "channel", "correlation", "bytes", "dir")
	spanFields     = newFields("layer", "index", "phase", "thread", "start", "end")
	gradientFields = newFields("layer", "index", "bytes", "bucket", "act_bytes", "op_kind")
	// noFields is the struct of a skipped object: every key is unknown.
	noFields = newFields()
)

// unknownField is the field index of a key that selects no field.
const unknownField = -1

// field returns the index of the field key selects in f — an exact
// match first, then a case-folded one, as encoding/json resolves keys —
// or unknownField.
func (d *decoder) field(key []byte, f *fields) int {
	for i, n := range f.names {
		if string(key) == n {
			return i
		}
	}
	d.fold = appendFold(d.fold[:0], key)
	for i, n := range f.folded {
		if string(d.fold) == n {
			return i
		}
	}
	return unknownField
}

// appendFold appends the case-folded form of name to dst, the way
// encoding/json folds keys: ASCII letters to upper case, and every
// other rune to the smallest rune of its Unicode simple-fold orbit.
func appendFold(dst, name []byte) []byte {
	for i := 0; i < len(name); {
		if c := name[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(name[i:])
		for {
			next := unicode.SimpleFold(r)
			if next <= r {
				r = next
				break
			}
			r = next
		}
		dst = utf8.AppendRune(dst, r)
		i += n
	}
	return dst
}

// object enters an object that decodes into a struct: it reports true
// with the '{' consumed, and false after a null, which leaves the struct
// as it is.
func (d *decoder) object(want string) (bool, error) {
	switch d.peek() {
	case '{':
		d.pos++
		return true, nil
	case 'n':
		return false, d.literal("null")
	}
	return false, d.mismatch(want)
}

// key advances to the next member of an open object and returns the
// index in f of the field its key selects, or unknownField, with the ':'
// and following whitespace consumed. It reports false after the closing
// '}'. first marks the call right after the '{'; prev is the previous
// member's field index.
func (d *decoder) key(f *fields, prev int, first bool) (int, bool, error) {
	d.ws()
	c := d.peek()
	if c == '}' {
		d.pos++
		return 0, false, nil
	}
	if !first {
		if c != ',' {
			return 0, false, d.unexpected("after object key:value pair")
		}
		d.pos++
		d.ws()
		c = d.peek()
	}
	if c != '"' {
		return 0, false, d.unexpected("looking for beginning of object key string")
	}
	k := d.quotedName(f, prev)
	if k == unknownField {
		key, err := d.string()
		if err != nil {
			return 0, false, err
		}
		k = d.field(key, f)
	}
	d.ws()
	if d.peek() != ':' {
		return 0, false, d.unexpected("after object key")
	}
	d.pos++
	d.ws()
	return k, true, nil
}

// quotedName consumes the key at the cursor if its bytes, quotes
// included, are one of f's quoted names, trying the field after prev
// first and the rest in order after it, and returns that field's index.
// It returns unknownField, consuming nothing, for any other key.
func (d *decoder) quotedName(f *fields, prev int) int {
	rest := d.buf[d.pos:]
	n := len(f.quoted)
	k := prev
	for range n {
		if k++; k == n {
			k = 0
		}
		if q := f.quoted[k]; len(rest) >= len(q) && string(rest[:len(q)]) == q {
			d.pos += len(q)
			return k
		}
	}
	return unknownField
}

func (d *decoder) traceObject(t *Trace) error {
	if ok, err := d.object("a trace"); !ok {
		return err
	}
	k := unknownField
	for first := true; ; first = false {
		var more bool
		var err error
		if k, more, err = d.key(traceFields, k, first); err != nil || !more {
			return err
		}
		// Cases follow traceFields.
		switch k {
		case 0:
			err = d.text(&t.Model)
		case 1:
			err = d.text(&t.Framework)
		case 2:
			err = d.text(&t.Device)
		case 3:
			err = signed(d, &t.BatchSize)
		case 4:
			err = d.text(&t.Precision)
		case 5:
			err = signed(d, &t.IterationTime)
		case 6:
			err = array(d, &t.Activities, (*decoder).activity)
		case 7:
			err = array(d, &t.LayerSpans, (*decoder).span)
		case 8:
			err = array(d, &t.Gradients, (*decoder).gradient)
		default:
			err = d.skip(1)
		}
		if err != nil {
			return err
		}
	}
}

// Records sit at depth 3: in an object, in an array, in the trace.
const recordDepth = 3

func (d *decoder) activity(a *Activity) error {
	if ok, err := d.object("an activity"); !ok {
		return err
	}
	k := unknownField
	for first := true; ; first = false {
		var more bool
		var err error
		if k, more, err = d.key(activityFields, k, first); err != nil || !more {
			return err
		}
		// Cases follow activityFields.
		switch k {
		case 0:
			err = signed(d, &a.ID)
		case 1:
			err = d.text(&a.Name)
		case 2:
			err = signed(d, &a.Kind)
		case 3:
			err = signed(d, &a.Start)
		case 4:
			err = signed(d, &a.Duration)
		case 5:
			err = signed(d, &a.Thread)
		case 6:
			err = signed(d, &a.Stream)
		case 7:
			err = d.text(&a.Channel)
		case 8:
			err = d.unsigned(&a.Correlation)
		case 9:
			err = signed(d, &a.Bytes)
		case 10:
			err = signed(d, &a.Dir)
		default:
			err = d.skip(recordDepth)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) span(s *LayerSpan) error {
	if ok, err := d.object("a layer span"); !ok {
		return err
	}
	k := unknownField
	for first := true; ; first = false {
		var more bool
		var err error
		if k, more, err = d.key(spanFields, k, first); err != nil || !more {
			return err
		}
		// Cases follow spanFields.
		switch k {
		case 0:
			err = d.text(&s.Layer)
		case 1:
			err = signed(d, &s.Index)
		case 2:
			err = signed(d, &s.Phase)
		case 3:
			err = signed(d, &s.Thread)
		case 4:
			err = signed(d, &s.Start)
		case 5:
			err = signed(d, &s.End)
		default:
			err = d.skip(recordDepth)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) gradient(g *GradientInfo) error {
	if ok, err := d.object("a gradient record"); !ok {
		return err
	}
	k := unknownField
	for first := true; ; first = false {
		var more bool
		var err error
		if k, more, err = d.key(gradientFields, k, first); err != nil || !more {
			return err
		}
		// Cases follow gradientFields.
		switch k {
		case 0:
			err = d.text(&g.Layer)
		case 1:
			err = signed(d, &g.Index)
		case 2:
			err = signed(d, &g.Bytes)
		case 3:
			err = signed(d, &g.Bucket)
		case 4:
			err = signed(d, &g.ActBytes)
		case 5:
			err = d.text(&g.Kind)
		default:
			err = d.skip(recordDepth)
		}
		if err != nil {
			return err
		}
	}
}
