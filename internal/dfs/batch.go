package dfs

import (
	"math"
	"slices"
	"strings"

	"clusterbft/internal/tuple"
)

// Batch serves a run of records one at a time as the values the line
// codec reads in each: Next steps through them; Width, Value and Plain
// read the one it stands on. A sealed block's range whose values hold no
// backslash or newline is held column by column, as the block stores it:
// the carried columns' values copied into one backing string, with one
// array of offsets to cut them out of it, and no line rebuilt. Anything
// else (an unsealed tail, a ReadHook's lines, a block range decoded to
// lines) is held as lines, where they are, every column carried, and read
// by the codec's own rule (tuple.Fields).
//
// The zero value is ready to use, and a Batch that is read into again
// reuses its arrays; the text of an earlier read stays valid for as long
// as a Value cut from it is referenced, and the Batch itself lets go of it
// once Next has stepped past the last record: one kept between tasks holds
// arrays, not data.
type Batch struct {
	shape  blockShape
	text   string
	widths []int // column count of each record, 0 for the empty line
	row    int
	// One array, cut in three, so that a read costs one allocation for all
	// of its offsets.
	ints    []int32
	cur     []int32 // per column, the index in ends of the current record's value; -1 when not carried
	carried []int32 // the carried columns, ascending
	ends    []int32 // ends[k+1] is where the k-th carried value ends in text, column after column

	// Held lines, non-nil while Next steps through them, and the current
	// one's values.
	lines []string
	line  tuple.Fields

	plain     bool
	lineBytes int64
}

// LineBytes returns the size of the batch's records as lines, a newline
// after each: what ReadRange's lines for them would add up to.
func (b *Batch) LineBytes() int64 { return b.lineBytes }

// Next moves to the next record, the first on the first call, and
// reports whether there is one.
func (b *Batch) Next() bool {
	if b.lines != nil {
		if b.row++; b.row < len(b.lines) {
			line := b.lines[b.row]
			b.plain = !b.line.Split(line) && strings.IndexByte(line, '\n') < 0
			return true
		}
		b.lines = nil
		b.line.Split("") // let go of the last
		return false
	}
	if b.row >= 0 && b.row < len(b.widths) {
		w := b.widths[b.row]
		for _, c := range b.carried {
			if int(c) >= w {
				break
			}
			b.cur[c]++
		}
	}
	b.row++
	if b.row < len(b.widths) {
		return true
	}
	b.text = ""
	return false
}

// Width returns the current record's column count. The empty line has
// width 0: a line codec reads it as no columns, not as one empty one.
func (b *Batch) Width() int {
	if b.lines != nil {
		return b.line.Len()
	}
	return b.widths[b.row]
}

// Value returns the text of column c of the current record. c must be a
// carried column below Width.
func (b *Batch) Value(c int) string {
	if b.lines != nil {
		return b.line.Value(c)
	}
	k := b.cur[c]
	return b.text[b.ends[k]:b.ends[k+1]]
}

// Plain reports whether the current record's values hold neither a
// backslash nor a newline: only then is each the bytes that encoding what
// it coerces to writes (tuple.FieldType.AppendCoerced).
func (b *Batch) Plain() bool { return b.plain }

// reset empties b, keeping its arrays.
func (b *Batch) reset() {
	b.text, b.widths, b.row, b.lines, b.lineBytes = "", nil, -1, nil, 0
}

// holdLines serves lines where they are.
func (b *Batch) holdLines(lines []string) {
	b.lines = lines
	for _, l := range lines {
		b.lineBytes += int64(len(l)) + 1
	}
}

// decode reads records [lo, hi) of an encoded block into b, carrying the
// columns need lists (nil: all; column c where c < len(need) && need[c]),
// or holds their lines where a value holds a backslash or a newline or the
// payload is too large for int32 offsets. The walk is decodeBlockRange's,
// which is this one's under a nil need: a block that decodes whole reads
// the same under every mask.
func (b *Batch) decode(data []byte, lo, hi int, need []bool) error {
	b.reset()
	n, payload, z, err := openBlock(data)
	if z != nil {
		defer inflaters.Put(z) // after the copy below: text never aliases its buffer
	}
	if err != nil {
		return err
	}
	s := &b.shape
	if err := s.walk(payload, n, lo, hi, need); err != nil {
		return err
	}
	widths := s.widths()
	size, vals := 0, 0
	asLines := len(payload) > math.MaxInt32
	for c, r := range s.cols {
		asLines = asLines || r.flagged && holdsEscape(payload, r, widths, c)
		if carries(need, c) {
			size += r.text
			vals += r.vals
		}
	}
	if asLines {
		lines, err := decodeBlockRange(nil, data, lo, hi)
		b.holdLines(lines)
		return err
	}

	var text strings.Builder
	text.Grow(size)
	k := len(s.cols)
	b.ints = slices.Grow(b.ints[:0], 2*k+vals+1)[:2*k+vals+1]
	b.cur, b.carried, b.ends = b.ints[:k:k], b.ints[k:k:2*k], append(b.ints[2*k:2*k], 0)
	for c, r := range s.cols {
		b.cur[c] = -1
		carry := carries(need, c)
		if carry {
			b.cur[c] = int32(len(b.ends) - 1)
			b.carried = append(b.carried, int32(c))
		} else if c > 0 || s.minCols > 1 {
			continue // only column 0 of a one-column record can make an empty line
		}
		off := r.start
		for i, cols := range widths {
			if cols <= c {
				continue
			}
			start, end := valueAt(payload, off)
			off = end
			if c == 0 && cols == 1 && start == end {
				widths[i] = 0 // the empty line: no column, and no value to step over
				continue
			}
			if carry {
				text.Write(payload[start:end])
				b.ends = append(b.ends, int32(text.Len()))
			}
		}
	}
	b.text, b.widths, b.plain, b.lineBytes = text.String(), widths, true, int64(s.lineBytes)
	return nil
}

func carries(need []bool, c int) bool {
	return need == nil || c < len(need) && need[c]
}

// holdsEscape reports whether a value that a flagged column holds for the
// range, which the walk stepped through, holds a backslash or a newline.
func holdsEscape(payload []byte, r colRegion, counts []int, c int) bool {
	if !holdsEscapeByte(payload[r.start:r.end]) {
		return false // the flag is the whole region's
	}
	// A length of 92 or 10 is one of the two bytes as well: look at the
	// values alone.
	off := r.start
	for _, cols := range counts {
		if cols <= c {
			continue
		}
		start, end := valueAt(payload, off)
		off = end
		if holdsEscapeByte(payload[start:end]) {
			return true
		}
	}
	return false
}
