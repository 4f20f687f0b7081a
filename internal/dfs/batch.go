package dfs

import (
	"encoding/binary"
	"math"
	"strings"
	"unsafe"

	"clusterbft/internal/tuple"
)

// Batch serves a run of records one at a time as the values the line
// codec reads in each: Next steps through them; Width, Value and Plain
// read the one it stands on. A sealed block's range whose values hold no
// backslash or newline is held column by column, as the block stores it:
// the text is the block's payload itself, seen as a string with no copy
// (one copy of it where the block is deflated), and a carried value is cut
// out of it by a start and an end offset — a plain column's at its bytes
// in the column's region, a dictionary-coded column's at the dictionary
// entry its code names. No value is copied and no line rebuilt. Anything
// else (a part file's unsealed tail, held as its one string cut at its
// line ends, or a block range decoded to lines) is held as lines, where
// they are, every column carried, and read by the codec's own rule
// (tuple.Fields).
//
// A column held as spans also carries what the block's seal learnt of the
// values it holds (Form): whether every one is a canonical integer, or
// none looks like an integer, so that a reader coerces and encodes the
// column by one rule for the whole batch rather than looking at every
// value again. The facts are the whole block's, so they hold for every
// range of it; the read looks at no value to learn them.
//
// The zero value is ready to use, and a Batch that is read into again
// reuses its arrays; the text of an earlier read stays valid for as long
// as a Value cut from it is referenced, and so keeps its whole block alive
// (blockText). The Batch itself holds it until the next read or Release,
// so that AppendLines still serves a range Next has stepped past: one kept
// between tasks, released, holds arrays, not data.
type Batch struct {
	shape  blockShape
	text   string
	widths []int // column count of each record, 0 for the empty line
	row    int
	// uniform is the record count of a range held as spans whose every
	// record holds every column, 0 otherwise: there a value's index is its
	// column's first plus the row, and Next only counts rows.
	uniform int
	// One array, cut in four, so that a read costs one allocation for all
	// of its offsets.
	ints []int32
	// cur is, per column, the index of the current record's value among
	// the carried values less the row; -1 when not carried. A record that
	// lacks a carried column leaves the next record's index where it was,
	// one less the row.
	cur     []int32
	carried []int32 // the carried columns, ascending
	forms   []int32 // per column, the tuple.IntForm its values share in the block (Form)
	// The k-th carried value, column after column, is text[ends[2k]:ends[2k+1]].
	ends []int32

	// Held lines, nheld of them while Next steps through them (0 when it
	// does not), and the current one's values.
	held  lineSet[string]
	nheld int
	line  tuple.Fields

	plain     bool
	lineBytes int64
	// room is how many records a read grows the arrays for at least
	// (Reserve).
	room int
}

// Reserve makes every read that grows b's arrays grow them for at least
// records records, as many as the largest block of the Reader holds at
// most. A slot that reads splits of at most records records then grows
// them once, whichever split it reads first: a short last split, or a
// range that a block's end cuts short.
func (b *Batch) Reserve(records int) { b.room = records }

// LineBytes returns the size of the batch's records as lines, a newline
// after each: what ReadRange's lines for them would add up to.
func (b *Batch) LineBytes() int64 { return b.lineBytes }

// Next moves to the next record, the first on the first call, and
// reports whether there is one. Within a uniform range it only counts the
// row, and is small enough to inline into the loop that calls it.
func (b *Batch) Next() bool {
	if b.row+1 < b.uniform {
		b.row++
		return true
	}
	return b.step()
}

// step is Next for held lines and ragged ranges, and at the end of a
// uniform one.
func (b *Batch) step() bool {
	if b.nheld > 0 {
		if b.row++; b.row < b.nheld {
			line := b.held.line(b.row)
			b.plain = !b.line.Split(line) && strings.IndexByte(line, '\n') < 0
			return true
		}
		b.held, b.nheld = lineSet[string]{}, 0
		b.line.Split("") // let go of the last
		return false
	}
	if b.row >= 0 && b.row < len(b.widths) {
		w := b.widths[b.row]
		for i := len(b.carried) - 1; i >= 0 && int(b.carried[i]) >= w; i-- {
			b.cur[b.carried[i]]--
		}
	}
	b.row++
	return b.row < len(b.widths)
}

// Row returns the index of the record Next stands on, 0 for the first.
func (b *Batch) Row() int { return b.row }

// Width returns the current record's column count. The empty line has
// width 0: a line codec reads it as no columns, not as one empty one.
func (b *Batch) Width() int {
	if b.nheld > 0 {
		return b.line.Len()
	}
	return b.widths[b.row]
}

// Value returns the text of column c of the current record. c must be a
// carried column below Width.
func (b *Batch) Value(c int) string {
	if b.nheld > 0 {
		return b.line.Value(c)
	}
	k := 2 * (int(b.cur[c]) + b.row)
	return b.text[b.ends[k]:b.ends[k+1]]
}

// Rows returns the record count of a range held as spans whose every
// record holds every column, every one carried; 0 for any other batch.
// AppendLines serves such a range.
func (b *Batch) Rows() int {
	if len(b.carried) < len(b.cur) {
		return 0
	}
	return b.uniform
}

// AppendLines appends records from, from+1, ... of a range Rows serves to
// dst as lines, each its values with a tab between and a newline after,
// at most max of them and no more than dst's capacity takes, but always
// one where dst is empty; it returns dst and how many it appended. It is
// the span bytes alone, with no value coerced or escaped: a line is its
// record's canonical encoding where every value is the string, or the
// canonical integer, it reads as. The batch's cursor does not move, and
// dst's array past what it returns may be written over.
func (b *Batch) AppendLines(dst []byte, from, max int) ([]byte, int) {
	cur, ends := b.cur, b.ends
	text := unsafe.Slice(unsafe.StringData(b.text), len(b.text)) // only read
	end := from + min(max, b.uniform-from)
	for r := from; r < end; r++ {
		at := len(dst)
		for _, first := range cur {
			k := 2 * (int(first) + r)
			s, e, n := int(ends[k]), int(ends[k+1]), len(dst)
			if n+e-s >= cap(dst) && at > 0 { // no room for it and a tab or newline
				return dst[:at], r - from
			}
			if e-s <= 8 && s+8 <= len(text) && n+8 <= cap(dst) {
				// one word moved, the value and bytes past it, beats a call to copy it
				binary.LittleEndian.PutUint64(dst[n:n+8], binary.LittleEndian.Uint64(text[s:]))
				dst = dst[:n+e-s]
			} else {
				dst = append(dst, text[s:e]...)
			}
			dst = append(dst, '\t')
		}
		dst[len(dst)-1] = '\n'
	}
	return dst, end - from
}

// Columns returns the width of a range held as spans, that of its widest
// record; 0 for held lines.
func (b *Batch) Columns() int { return len(b.forms) }

// Form returns what the batch knows of the values of column c across all
// of its records: tuple.IntCanon if every one is a canonical integer,
// tuple.IntNone if none looks like an integer, and tuple.IntOther if
// neither is known, which is always so for held lines and a column not
// carried. What it knows is the block's directory's word for every value
// the column holds in the block, the empty line's excepted (forms), and
// so for any range of it.
func (b *Batch) Form(c int) tuple.IntForm {
	if b.nheld > 0 || c >= len(b.forms) {
		return tuple.IntOther
	}
	return tuple.IntForm(b.forms[c])
}

// Plain reports whether the current record's values hold neither a
// backslash nor a newline: only then is each the bytes that encoding what
// it coerces to writes (tuple.FieldType.AppendCoerced).
func (b *Batch) Plain() bool { return b.plain }

// Release lets go of the text of the last read, keeping b's arrays.
func (b *Batch) Release() { b.reset() }

// reset empties b, keeping its arrays.
func (b *Batch) reset() {
	b.text, b.widths, b.row, b.uniform, b.forms, b.lineBytes = "", nil, -1, 0, nil, 0
	b.held, b.nheld = lineSet[string]{}, 0
}

// holdLines serves lines where they are.
func (b *Batch) holdLines(lines lineSet[string]) {
	b.held, b.nheld, b.lineBytes = lines, lines.len(), lines.bytes()
}

// decode reads records [lo, hi) of an encoded block into b, carrying the
// columns need lists (nil: all; column c where c < len(need) && need[c]),
// or holds their lines where a value holds a backslash or a newline or the
// payload is too large for int32 offsets. The walk is decodeBlockRange's,
// which is this one's under a nil need: a block that decodes whole reads
// the same under every mask. Where b's arrays must grow, they grow with
// room for as many records as room says, if that is more than the range:
// a slot whose reads are of one size at most grows them once, whichever
// of its reads comes first.
func (b *Batch) decode(data []byte, lo, hi, room int, need []bool) error {
	b.reset()
	n, payload, coded, z, err := openBlock(data)
	if z != nil {
		defer inflaters.Put(z) // after the copy below: text never aliases its buffer
	}
	if err != nil {
		return err
	}
	s := &b.shape
	if cap(s.counts) < room {
		s.counts = grown(s.counts, room)
	}
	if err := s.walk(payload, n, coded, lo, hi, need); err != nil {
		return err
	}
	widths := s.widths()
	vals, carried := 0, 0
	asLines := len(payload) > math.MaxInt32
	for c, r := range s.cols {
		asLines = asLines || r.flagged && s.holdsEscape(payload, c, widths)
		if carries(need, c) {
			vals += r.vals
			carried++
		}
	}
	if asLines {
		lines, err := s.decodeLines(nil, data, lo, hi)
		b.holdLines(lineSet[string]{lines: lines})
		return err
	}

	if z == nil {
		b.text = blockText(payload)
	} else if vals > 0 {
		b.text = string(payload) // one copy: the inflater's buffer is the next read's
	}
	k := len(s.cols)
	if cap(b.ints) < 3*k+2*vals {
		b.ints = grown(b.ints, 3*k+2*max(vals, carried*room))
	}
	b.ints = b.ints[:3*k+2*vals]
	b.cur, b.carried, b.forms = b.ints[:k:k], b.ints[k:k:2*k], b.ints[2*k:3*k:3*k]
	b.ends = b.ints[3*k : 3*k]
	uniform := s.minCols == k
	for c, r := range s.cols {
		b.cur[c], b.forms[c] = -1, int32(tuple.IntOther)
		carry := carries(need, c)
		if carry {
			b.cur[c], b.forms[c] = int32(len(b.ends)/2), r.facts.form()
			b.carried = append(b.carried, int32(c))
		} else if c > 0 || s.minCols > 1 {
			continue // only column 0 of a one-column record can make an empty line
		}
		// The same loop twice, over values and over codes: one that asks
		// which a value is costs the read of a plain block a tenth.
		if dict := s.dictOf(c); dict != nil {
			codes := payload[r.start:r.end]
			for i, cols := range widths {
				if cols <= c {
					continue
				}
				start, end := dict[codes[0]], dict[int(codes[0])+1]
				codes = codes[1:]
				if c == 0 && cols == 1 && start == end {
					widths[i], uniform = 0, false
					continue
				}
				if carry {
					b.ends = append(b.ends, int32(start), int32(end))
				}
			}
			continue
		}
		off := r.start
		for i, cols := range widths {
			if cols <= c {
				continue
			}
			start, end := valueAt(payload, off)
			off = end
			if c == 0 && cols == 1 && start == end {
				widths[i], uniform = 0, false // the empty line: no column, and no value to step over
				continue
			}
			if carry {
				b.ends = append(b.ends, int32(start), int32(end))
			}
		}
	}
	b.widths, b.plain, b.lineBytes = widths, true, int64(s.lineBytes)
	if uniform {
		b.uniform = len(widths)
	}
	return nil
}

// blockText returns a sealed block's payload as a string, without a copy.
// It rests on one invariant: nothing writes a sealed block's bytes after
// sealHeader. A spill writes them out and drops them, a spilled block is
// read back into a buffer of its own (FS.blockData), and Delete only drops
// the reference; so a value cut from the string stays as read for as long
// as anyone holds it, and holding it keeps the block's bytes alive. A
// deflated payload lives in a pooled inflater's buffer, which the next
// read writes over: it is never passed here.
func blockText(payload []byte) string {
	return unsafe.String(unsafe.SliceData(payload), len(payload))
}

func carries(need []bool, c int) bool {
	return need == nil || c < len(need) && need[c]
}

// holdsEscape reports whether a value that flagged column c holds for the
// range, which the walk stepped through, holds a backslash or a newline.
func (s *blockShape) holdsEscape(payload []byte, c int, widths []int) bool {
	r := s.cols[c]
	if !s.coded && !holdsEscapeByte(payload[r.start:r.end]) {
		return false // the flag is the whole region's
	}
	// A length of 92 or 10 is one of the two bytes as well, and a coded
	// column's flag is its dictionary's: look at the range's values alone.
	dict, off := s.dictOf(c), r.start
	for _, cols := range widths {
		if cols <= c {
			continue
		}
		var start, end int
		if dict != nil {
			start, end = dict[payload[off]], dict[int(payload[off])+1]
			off++
		} else {
			start, end = valueAt(payload, off)
			off = end
		}
		if holdsEscapeByte(payload[start:end]) {
			return true
		}
	}
	return false
}
