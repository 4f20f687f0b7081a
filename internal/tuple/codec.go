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
// Decoder instead, which amortizes its scratch.
func DecodeLine(line string, schema *Schema) Tuple {
	if line == "" || strings.IndexByte(line, '\\') >= 0 {
		var d Decoder
		return d.DecodeLine(line, schema)
	}
	// Escape-free: every field is a slice of line, cut with no scratch.
	t := make(Tuple, strings.Count(line, "\t")+1)
	for i := range t {
		end := strings.IndexByte(line, '\t')
		if end < 0 {
			end = len(line)
		}
		t[i] = schema.ColType(i).Coerce(line[:end])
		line = line[min(end+1, len(line)):]
	}
	return t
}

// Decoder decodes a run of record lines. It reuses its Fields across
// calls, so an escaped line costs one allocation (the backing string of
// its unescaped fields) and any other none, and it carves tuples from a
// Slab rather than allocating each one: tuples stay valid, and
// independent, after later calls. The zero value is ready to use. Not safe
// for concurrent use.
type Decoder struct {
	slab   Slab
	fields Fields
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
	f := &d.fields
	f.Split(line)
	t := d.slab.Tuple(f.Len())
	for i := range t {
		t[i] = schema.ColType(i).Coerce(f.Value(i))
	}
	return t
}

// Fields reads encoded record lines into their fields by the codec's one
// rule, reusing its arrays from line to line. The zero value is ready to
// use.
type Fields struct {
	text   string
	starts []int // where each field begins in text, and where one after the last would
	sep    int   // what follows a field in text: a tab (1) or nothing (0)
	buf    []byte
}

// Split makes line the one f reads, and reports whether it holds a
// backslash. An unescaped tab ends a field. A line without a backslash is
// read where it is; one holding a backslash is unescaped into a string of
// its own: `\t`, `\n` and `\\` are a tab, a newline and a backslash, a
// backslash before any other byte stands for itself and that byte (one
// before a tab glues the tab into its field), and one ending the line for
// itself. The empty line has no field.
func (f *Fields) Split(line string) (escaped bool) {
	f.text, f.starts, f.sep = line, append(f.starts[:0], 0), 1
	if strings.IndexByte(line, '\\') < 0 {
		for i := 0; i < len(line); i++ {
			if line[i] == '\t' {
				f.starts = append(f.starts, i+1)
			}
		}
		if line != "" {
			f.starts = append(f.starts, len(line)+1)
		}
		return false
	}
	buf := f.buf[:0]
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '\\' && i+1 < len(line):
			i++
			switch line[i] {
			case 't':
				buf = append(buf, '\t')
			case 'n':
				buf = append(buf, '\n')
			case '\\':
				buf = append(buf, '\\')
			default:
				buf = append(buf, '\\', line[i])
			}
		case c == '\t':
			f.starts = append(f.starts, len(buf))
		default:
			buf = append(buf, c)
		}
	}
	f.text, f.starts, f.sep, f.buf = string(buf), append(f.starts, len(buf)), 0, buf
	return true
}

// Len returns the number of fields of the line split last.
func (f *Fields) Len() int { return len(f.starts) - 1 }

// Value returns field i of the line split last.
func (f *Fields) Value(i int) string { return f.text[f.starts[i] : f.starts[i+1]-f.sep] }

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
