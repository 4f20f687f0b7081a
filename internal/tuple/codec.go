package tuple

import (
	"strings"
)

// The line codec stores tuples as tab-separated text records, one per
// line, mirroring the default PigStorage format. Tabs, newlines and
// backslashes inside string values are escaped so the encoding is
// canonical: a given tuple always encodes to exactly one byte sequence.
// Digest computation depends on this property.
//
// One inherited ambiguity (shared with Hadoop's text formats): a tuple
// holding a single empty field encodes to the empty line, which decodes
// as the empty tuple. Replicas process identical streams identically, so
// digest comparison is unaffected; schema-carrying consumers should
// treat zero-column records as absent rows.
//
// The codec is the per-record hot path of the whole engine (every map
// input, shuffle key, digest fold and output line goes through it), so
// the Append* entry points write into caller-owned buffers and allocate
// nothing themselves; numeric values are formatted with strconv's
// append forms rather than through Value.Str.

// EncodeLine renders t as one tab-separated record without a trailing
// newline.
func EncodeLine(t Tuple) string {
	buf := make([]byte, 0, EncodedLen(t))
	return string(AppendEncoded(buf, t))
}

// AppendEncoded appends the tab-separated encoding of t (no trailing
// newline) to dst and returns the extended slice. It allocates only when
// dst lacks capacity, so a caller looping over records can reuse one
// scratch buffer across the whole stream.
func AppendEncoded(dst []byte, t Tuple) []byte {
	for i, v := range t {
		if i > 0 {
			dst = append(dst, '\t')
		}
		dst = appendEscapedValue(dst, v)
	}
	return dst
}

// AppendCanonical appends the canonical byte encoding of t (the escaped
// tab-separated record followed by '\n') to dst and returns the extended
// slice. This is the exact byte stream fed to verification digests.
func AppendCanonical(dst []byte, t Tuple) []byte {
	return append(AppendEncoded(dst, t), '\n')
}

// EncodedLen returns len(EncodeLine(t)) without encoding: the shuffle
// path sizes record-byte accounting and encode buffers with it.
func EncodedLen(t Tuple) int {
	n := 0
	for i, v := range t {
		if i > 0 {
			n++
		}
		n += escapedValueLen(v)
	}
	return n
}

// DecodeLine parses one encoded record into a tuple, coercing columns by
// the schema when provided (extra columns coerce as TypeAny; missing
// schema columns are not padded). Loops over many records should use a
// Decoder instead, which amortizes the escaped-path scratch buffer.
func DecodeLine(line string, schema *Schema) Tuple {
	var d Decoder
	return d.DecodeLine(line, schema)
}

// Decoder decodes the record lines of one task. It reuses one unescape
// scratch buffer across calls, so the escaped slow path costs one
// allocation per record (the backing string shared by every unescaped
// field), and it carves tuples from a Slab rather than allocating each
// one: tuples stay valid, and independent, after later calls. The zero
// value is ready to use. Not safe for concurrent use; each task body owns
// its own Decoder.
type Decoder struct {
	// Need, when non-nil, lists the columns the caller reads: column i is
	// sure to be coerced only where i < len(Need) && Need[i]. Any other
	// may be left null in its place (the escape-free path does, the
	// escaped path coerces everything); width and positions never change.
	Need []bool

	// Slab is what decoded tuples are carved from. A task that also builds
	// source tuples some other way carves those from it too, and fills one
	// run of arrays instead of two.
	Slab Slab

	buf    []byte
	bounds []int
}

// Slab carves tuples out of shared arrays of Values instead of
// allocating each one. An array is never reused: every tuple handed out
// keeps its own storage for as long as it is referenced, and all tuples
// of one array are freed together. The zero value is ready to use.
type Slab struct {
	free  []Value // unused tail of the current array, all null
	grown int     // Values in the current array, to size the next one
}

// slabValues caps a slab array at the largest malloc size class, 32 KiB,
// which Values fill exactly.
const slabValues = 32 << 10 / valueBytes

// Tuple carves a null-filled n-column tuple off the slab. Arrays double
// from the first tuple's width up to slabValues, so a Slab used for one
// tuple allocates exactly that tuple.
func (s *Slab) Tuple(n int) Tuple {
	if n > len(s.free) {
		s.grown = max(n, min(2*s.grown, slabValues))
		s.free = make([]Value, s.grown)
	}
	t := s.free[:n:n]
	s.free = s.free[n:]
	return t
}

// DecodeLine parses one encoded record into a tuple; see the package
// function for semantics.
func (d *Decoder) DecodeLine(line string, schema *Schema) Tuple {
	if line == "" {
		return Tuple{}
	}
	if strings.IndexByte(line, '\\') < 0 {
		return d.decodePlain(line, schema)
	}
	// Escaped slow path: unescape the whole line into the shared scratch
	// buffer, recording where each field ends, then cut one backing
	// string into per-field substrings.
	d.buf = d.buf[:0]
	d.bounds = d.bounds[:0]
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '\\' && i+1 < len(line):
			i++
			switch line[i] {
			case 't':
				d.buf = append(d.buf, '\t')
			case 'n':
				d.buf = append(d.buf, '\n')
			case '\\':
				d.buf = append(d.buf, '\\')
			default:
				d.buf = append(d.buf, '\\', line[i])
			}
		case c == '\t':
			d.bounds = append(d.bounds, len(d.buf))
		default:
			d.buf = append(d.buf, c)
		}
	}
	d.bounds = append(d.bounds, len(d.buf))
	all := string(d.buf)
	t := d.Slab.Tuple(len(d.bounds))
	start := 0
	for i, end := range d.bounds {
		t[i] = schema.ColType(i).Coerce(all[start:end])
		start = end
	}
	return t
}

// decodePlain is the escape-free fast path: every field is a direct
// slice of line, and the scan stops at the last column Need lists.
func (d *Decoder) decodePlain(line string, schema *Schema) Tuple {
	t := d.Slab.Tuple(strings.Count(line, "\t") + 1)
	cols := len(t)
	if d.Need != nil {
		cols = min(cols, len(d.Need))
	}
	start := 0
	for i := 0; i < cols; i++ {
		rest := line[start:]
		end := strings.IndexByte(rest, '\t')
		if end < 0 {
			end = len(rest)
		}
		if d.Need == nil || d.Need[i] {
			t[i] = schema.ColType(i).Coerce(rest[:end])
		}
		start += end + 1
	}
	return t
}

// appendEscapedValue appends the escaped text form of v. Numeric and
// null values never contain escape bytes, so only strings go through the
// escape scan.
func appendEscapedValue(dst []byte, v Value) []byte {
	if v.kind == KindString {
		return appendEscaped(dst, v.s)
	}
	return v.appendText(dst)
}

// escapedValueLen returns len of the escaped text form of v without
// allocating.
func escapedValueLen(v Value) int {
	if v.kind == KindString {
		return escapedLen(v.s)
	}
	return v.textLen()
}

func appendEscaped(dst []byte, s string) []byte {
	clean := 0 // s[:clean] holds nothing to escape
	for clean < len(s) && s[clean] != '\t' && s[clean] != '\n' && s[clean] != '\\' {
		clean++
	}
	dst = append(dst, s[:clean]...)
	for i := clean; i < len(s); i++ {
		switch s[i] {
		case '\t':
			dst = append(dst, '\\', 't')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\\':
			dst = append(dst, '\\', '\\')
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// escapedLen is len(appendEscaped(nil, s)) without the encode.
func escapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\t', '\n', '\\':
			n++
		}
	}
	return n
}
