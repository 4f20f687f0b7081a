package tuple

import (
	"strconv"
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
// nothing themselves, and one flat loop writes a whole record
// (appendRecord): each value's bytes are written where the loop meets it,
// switching on its kind, with no call for the values records are mostly
// made of. An int of fewer than five digits is written from digitPairs at
// its known length, in one append with the tab that follows it; a longer
// one by appendInt; a string is copied up to its first byte to escape; a
// float goes through strconv's append form. The last value's tab is the
// canonical form's newline, or is taken off.

// AppendEncoded appends the tab-separated encoding of t (no trailing
// newline) to dst and returns the extended slice. It allocates only when
// dst lacks capacity, so a caller looping over records can reuse one
// scratch buffer across the whole stream. It writes one byte past what it
// returns (the last value's tab, taken off again), so the capacity it
// needs is the encoding's length plus one.
func AppendEncoded(dst []byte, t Tuple) []byte {
	return endRecord(appendRecord(dst, t, nil, true), len(t))
}

// AppendColumns appends the encoding of t's cols, in their order, as
// AppendEncoded writes the tuple of those values (and with its one byte
// past): a column past t's width is a null, which has no bytes. A shuffle
// key is t's key columns so encoded.
func AppendColumns(dst []byte, t Tuple, cols []int) []byte {
	return endRecord(appendRecord(dst, t, cols, false), len(cols))
}

// AppendCanonical appends the canonical byte encoding of t (the escaped
// tab-separated record followed by '\n') to dst and returns the extended
// slice. This is the exact byte stream fed to verification digests.
func AppendCanonical(dst []byte, t Tuple) []byte {
	if len(t) == 0 {
		return append(dst, '\n')
	}
	dst = appendRecord(dst, t, nil, true)
	dst[len(dst)-1] = '\n'
	return dst
}

// endRecord takes the tab off the last of n values appendRecord wrote.
func endRecord(dst []byte, n int) []byte {
	if n > 0 {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// appendRecord appends the encoding of every column of t if all is set,
// else of t's cols, each value followed by a tab, which goes in the same
// append as a short int's digits.
func appendRecord(dst []byte, t Tuple, cols []int, all bool) []byte {
	n := len(cols)
	if all {
		n = len(t)
	}
	for k := 0; k < n; k++ {
		c := k
		if !all {
			if c = cols[k]; c >= len(t) {
				dst = append(dst, '\t') // null: no bytes
				continue
			}
		}
		v := &t[c]
		switch v.kind {
		case KindInt:
			i := v.i()
			u := uint64(i)
			if i < 0 {
				u = -u // MinInt64's magnitude too
			}
			if u >= 1e4 {
				dst = append(appendInt(dst, i), '\t')
				continue
			}
			if i < 0 {
				dst = append(dst, '-')
			}
			switch {
			case u < 10:
				dst = append(dst, byte('0'+u), '\t')
			case u < 100:
				dst = append(dst, digitPairs[2*u], digitPairs[2*u+1], '\t')
			case u < 1000:
				q, r := u/100, 2*(u%100)
				dst = append(dst, byte('0'+q), digitPairs[r], digitPairs[r+1], '\t')
			default:
				q, r := 2*(u/100), 2*(u%100)
				dst = append(dst, digitPairs[q], digitPairs[q+1], digitPairs[r], digitPairs[r+1], '\t')
			}
		case KindString:
			s := v.s
			clean := 0 // s[:clean] holds nothing to escape
			for clean < len(s) && s[clean] != '\t' && s[clean] != '\n' && s[clean] != '\\' {
				clean++
			}
			dst = append(dst, s[:clean]...)
			if clean < len(s) {
				dst = appendEscapes(dst, s[clean:])
			}
			dst = append(dst, '\t')
		case KindFloat:
			dst = append(strconv.AppendFloat(dst, v.f(), 'g', -1, 64), '\t')
		default:
			dst = append(dst, '\t')
		}
	}
	return dst
}

// EncodedLen returns len(AppendEncoded(nil, t)) without encoding: the shuffle
// path sizes record-byte accounting and encode buffers with it. It counts
// in appendRecord's shape, with no call for an int or a string: an int's
// digits counted (intLen, inlined), a string's escape bytes, a float
// formatted on the stack.
func EncodedLen(t Tuple) int {
	n := max(len(t)-1, 0) // the tabs
	for k := range t {
		v := &t[k]
		switch v.kind {
		case KindInt:
			n += intLen(v.i())
		case KindString:
			s := v.s
			n += len(s)
			for j := 0; j < len(s); j++ {
				switch s[j] {
				case '\t', '\n', '\\':
					n++
				}
			}
		case KindFloat:
			var tmp [32]byte
			n += len(strconv.AppendFloat(tmp[:0], v.f(), 'g', -1, 64))
		}
	}
	return n
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

// DecodeLine parses one encoded record into a tuple, coercing columns by
// the schema when provided (extra columns coerce as TypeAny; missing
// schema columns are not padded).
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

// appendEscapes appends s with each tab, newline and backslash escaped.
func appendEscapes(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
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
