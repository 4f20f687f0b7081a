package dfs

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"clusterbft/internal/tuple"
)

// The block format is the at-rest representation of file records: a file
// is a sequence of sealed blocks, the last possibly short, and a task's
// part file may end in an unsealed tail. Each block holds
// a batch of records in column-grouped, length-prefixed form — record
// values (the tab-separated fields of each line) are regrouped so all
// values of column 0 are stored contiguously, then all of column 1, and
// so on. Column grouping puts like-typed bytes next to each other, which
// is what makes the optional per-block compression effective on tabular
// data. Splitting on raw tabs and re-joining with tabs is an
// exact involution for arbitrary line content (the tuple codec escapes
// tabs inside values, and even unescaped content round-trips), so block
// encoding is invisible to every consumer: digests are taken over
// canonical record bytes, never over block bytes (PR 2's separation),
// which is what lets the storage representation change freely here.
//
// Layout (version 3):
//
//	byte 0: format version (blockVersion)
//	byte 1: flags, at most one of blockFlagFlate (the payload is
//	   flate-compressed) and blockFlagDict (its regions are
//	   dictionary-coded); any other bit fails every read
//	uvarint: record count (always uncompressed, so counting is cheap)
//	4 bytes: CRC-32C of every byte before them and of the stored payload
//	payload (possibly compressed):
//	   uvarint: maxCols — the widest record's column count
//	   uvarint: minCols — the narrowest record's
//	   per record, unless minCols == maxCols: uvarint column count
//	   for c in [0, maxCols), the region of column c:
//	      for each record with >c columns: uvarint value length, value bytes
//	      or, dictionary-coded: uvarint k, the count of distinct values
//	      (1 to 256); their k uvarint lengths; their bytes back to back;
//	      for each record with >c columns one byte, the index of its value
//	   directory:
//	      per column: uvarint, its region's byte length times 8, plus the
//	         column's facts times 2, plus one if a byte of the region
//	         (dictionary-coded: of its values) is a backslash or a newline.
//	         The facts are what a batch reports of the column (Batch.Form),
//	         two bits folded over every value it holds, the empty line's
//	         excepted: 1, a value is not a canonical integer; 2, a value
//	         looks like an integer (forms)
//	      per record: uvarint line length
//	      the row index, in a raw block whose every record holds every
//	         column, for each record r = 1024, 2048, ... below the record
//	         count: 8 bytes, where in the payload r's line length begins;
//	         per column, 8 bytes, where r's value begins
//	   8 bytes: where in the payload the directory begins
//
// Asked to compress, the encoder dictionary-codes a block whose every
// column holds at most 256 distinct values, if that is smaller than the
// raw payload: a value is then one byte, read with no inflate. Any other
// block is flate-compressed (BestSpeed), and stored raw if that does not
// shrink it. Both codecs stay because neither wins everywhere. A column
// with more distinct values than a byte indexes (the Twitter follower
// lists: 361 to 1,068 per block) would take two-byte codes, which store
// 75-100 % of raw where flate stores about half.
//
// The checksum is what vouches for a block: openBlock verifies it on every
// read, and past it a reader looks only at what it was asked for (walk),
// stepping from the last row index entry at or before the first record it
// returns. A coded block's codes are found without one (a code is a byte),
// and a ragged block is walked from record 0.
const (
	blockVersion   = 0x03
	blockFlagFlate = 0x01
	blockFlagDict  = 0x02
)

// indexStride is how many records apart the row index's entries are.
const indexStride = 1024

// entries is how many the row index of a raw block of n records whose
// every record holds every column has: one for each record 1024, 2048, ...
// below n.
func entries(n int) int { return max(n-1, 0) / indexStride }

// dictMax is the most distinct values a dictionary-coded column holds: a
// code is one byte.
const dictMax = 256

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DefaultBlockSize is the target encoded size of one sealed block.
const DefaultBlockSize = 256 << 10

// EncodeBlock serializes a batch of record lines into one block.
// compress enables per-block compression: a dictionary code where every
// column holds few enough distinct values, flate (BestSpeed) otherwise.
// Payloads neither shrinks are stored raw even when compression is
// requested, so decoding never pays for nothing.
func EncodeBlock(lines []string, compress bool) []byte {
	data, _ := encodeBlockStats(lineSet[string]{lines: lines}, compress)
	return data
}

// lineText is how a line is held: a string of its own, or bytes of a buffer.
type lineText interface{ string | []byte }

// lineSet is the lines a block is encoded from, in one of two shapes: a
// []string, or one buffer holding them back to back, cut where ends says
// (FS.SealBuffer). Each encoder has one body for both: a line is read only
// as its bytes.
type lineSet[T lineText] struct {
	lines []T     // a line each, where ends is nil
	buf   T       // else the lines' bytes, from start on
	start int32   // where the first line begins in buf
	ends  []int32 // where each line ends in buf
}

func (s *lineSet[T]) len() int {
	if s.ends == nil {
		return len(s.lines)
	}
	return len(s.ends)
}

func (s *lineSet[T]) line(i int) T {
	if s.ends == nil {
		return s.lines[i]
	}
	start := s.start
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.buf[start:s.ends[i]]
}

// slice is the set of lines [lo, hi).
func (s *lineSet[T]) slice(lo, hi int) lineSet[T] {
	if s.ends == nil {
		return lineSet[T]{lines: s.lines[lo:hi]}
	}
	start := s.start
	if lo > 0 {
		start = s.ends[lo-1]
	}
	return lineSet[T]{buf: s.buf, start: start, ends: s.ends[lo:hi]}
}

// bytes is the lines' logical size: their bytes and a newline each.
func (s *lineSet[T]) bytes() int64 {
	if s.ends == nil {
		var n int64
		for _, l := range s.lines {
			n += int64(len(l)) + 1
		}
		return n
	}
	if len(s.ends) == 0 {
		return 0
	}
	return int64(s.ends[len(s.ends)-1]-s.start) + int64(len(s.ends))
}

// compact copies the lines out as one string of their bytes back to back,
// cut at ends rebased to it: two allocations, the text and 4 bytes a line,
// and nothing of s pointed into.
func (s *lineSet[T]) compact() lineSet[string] {
	ends := make([]int32, s.len())
	if s.ends != nil {
		for i, end := range s.ends {
			ends[i] = end - s.start
		}
		return lineSet[string]{buf: string(s.buf[s.start:s.ends[len(s.ends)-1]]), ends: ends}
	}
	var text strings.Builder
	text.Grow(int(s.bytes()) - len(s.lines))
	for i, l := range s.lines {
		text.WriteString(string(l))
		ends[i] = int32(text.Len())
	}
	return lineSet[string]{buf: text.String(), ends: ends}
}

// appendStrings appends the lines to dst, each a string of its own or
// cut out of the one string they are held in.
func (s *lineSet[T]) appendStrings(dst []string) []string {
	for i := range s.len() {
		dst = append(dst, string(s.line(i)))
	}
	return dst
}

// indexByte is strings.IndexByte for either shape of text. The values it
// looks through are mostly a few bytes long.
func indexByte[T lineText](s T, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// encodeBlockStats is EncodeBlock plus the uncompressed payload length,
// which the FS folds into its compression-ratio accounting. The block is
// laid out exactly before a byte of it is written, header first, so a raw
// or dictionary-coded block is built where it is kept, with no spare
// capacity; a deflated one is one copy out of the deflater.
func encodeBlockStats[T lineText](lines lineSet[T], compress bool) (data []byte, rawLen int) {
	if compress {
		if data, rawLen = encodeCoded(lines); data != nil {
			return data, rawLen
		}
	}
	// Pass 1: the payload's size — every value's length prefix and bytes,
	// counted into its column's region, every record's column count and
	// line length — and each column's facts.
	var regionArr, cursorArr [16]int
	var factArr [16]forms
	regions := regionArr[:0]                     // region c's byte length
	facts := factArr[:0]                         // column c's
	maxCols, minCols, counts, tail := 0, 0, 0, 0 // tail: the directory's bytes
	for i := range lines.len() {
		l := lines.line(i)
		n := 0
		for start := 0; start <= len(l); n++ {
			if n == len(regions) {
				regions, facts = append(regions, 0), append(facts, 0)
			}
			// The value's end and, while its column's facts still tell
			// something, what it breaks of them, learnt as it is scanned
			// where it can be: a value led by neither a digit nor a sign
			// is no integer, and digits alone up to the tab are a
			// canonical one unless there are none or more than 18, or a
			// zero leads. The empty line holds no value.
			end, scan := 0, true
			if len(l) > 0 && facts[n] != notCanon|someInt {
				for start+end < len(l) && l[start+end]-'0' < 10 {
					end++
				}
				switch {
				case end == 0 && (start == len(l) || l[start] != '-' && l[start] != '+'):
					facts[n] |= notCanon
				case start+end < len(l) && l[start+end] != '\t' || end == 0 || end > 18 || end > 1 && l[start] == '0':
					var f forms
					end, f = cutOther(l[start:], end)
					facts[n], scan = facts[n]|f, false
				default:
					facts[n], scan = facts[n]|someInt, false
				}
			}
			if scan {
				if end = indexByte(l[start:], '\t'); end < 0 {
					end = len(l) - start
				}
			}
			regions[n] += uvarintLen(end) + end
			start += end + 1
		}
		counts += uvarintLen(n)
		tail += uvarintLen(len(l))
		maxCols = max(maxCols, n)
		if i == 0 || n < minCols {
			minCols = n
		}
	}
	ragged := minCols != maxCols
	index := 0 // the row index's entries: a ragged block has none
	if !ragged {
		counts = 0
		index = entries(lines.len())
	}
	// The layout, as offsets into data: the header up to h, the checksum,
	// then the payload from p — its head, the column counts, the regions
	// from the cursors' starts, and from dir the directory: an entry a
	// column, the line lengths, from ix the row index, and the trailer.
	h := 2 + uvarintLen(lines.len())
	p := h + 4
	dir := p + uvarintLen(maxCols) + uvarintLen(minCols) + counts
	tail += 8 * index * (1 + maxCols)
	cursor := cursorArr[:0] // where column c's next value goes
	for _, r := range regions {
		cursor = append(cursor, dir)
		dir += r
		tail += uvarintLen(r << 3)
	}
	rawLen = dir + tail + 8 - p
	ix := p + rawLen - 8 - 8*index*(1+maxCols)

	// Pass 2: each record's values, each at its column's cursor, where an
	// index entry's record takes them from; then the directory.
	data = make([]byte, p+rawLen)
	w := p + binary.PutUvarint(data[p:], uint64(maxCols))
	w += binary.PutUvarint(data[w:], uint64(minCols))
	for i := range lines.len() {
		l := lines.line(i)
		if index > 0 && i > 0 && i%indexStride == 0 {
			at := ix + 8*(i/indexStride-1)*(1+maxCols)
			for c := range cursor {
				binary.LittleEndian.PutUint64(data[at+8+8*c:], uint64(cursor[c]-p))
			}
		}
		n := 0
		for start := 0; start <= len(l); n++ {
			end := indexByte(l[start:], '\t')
			if end < 0 {
				end = len(l) - start
			}
			at := cursor[n] + binary.PutUvarint(data[cursor[n]:], uint64(end))
			cursor[n] = at + copy(data[at:], l[start:start+end])
			start += end + 1
		}
		if ragged {
			w += binary.PutUvarint(data[w:], uint64(n))
		}
	}
	w = dir
	for c, r := range regions {
		// The cursor stands at its region's end.
		w += binary.PutUvarint(data[w:], dirEntry(r, facts[c], data[cursor[c]-r:cursor[c]]))
	}
	for i := range lines.len() {
		if index > 0 && i > 0 && i%indexStride == 0 {
			binary.LittleEndian.PutUint64(data[ix+8*(i/indexStride-1)*(1+maxCols):], uint64(w-p))
		}
		w += binary.PutUvarint(data[w:], uint64(len(lines.line(i))))
	}
	binary.LittleEndian.PutUint64(data[len(data)-8:], uint64(dir-p))

	flags := byte(0)
	if compress {
		z := deflaters.Get().(*deflater)
		defer deflaters.Put(z) // after the copy below
		z.out.Reset()
		z.zw.Reset(&z.out)
		if _, err := z.zw.Write(data[p:]); err == nil && z.zw.Close() == nil && z.out.Len() < rawLen {
			data = append(make([]byte, p, p+z.out.Len()), z.out.Bytes()...)
			flags |= blockFlagFlate
		}
	}
	sealHeader(data, h, flags, lines.len())
	return data, rawLen
}

// sealHeader writes the header of a block of n records, whose payload data
// holds from h+4 on, and the checksum over both.
func sealHeader(data []byte, h int, flags byte, n int) {
	data[0], data[1] = blockVersion, flags
	binary.PutUvarint(data[2:h], uint64(n))
	binary.LittleEndian.PutUint32(data[h:], crc32.Update(crc32.Checksum(data[:h], castagnoli), castagnoli, data[h+4:]))
}

// encodeCoded is encodeBlockStats for a block whose regions are to be
// dictionary-coded. It gives up, returning nil, once a column holds more
// than dictMax distinct values, or where the code would not be smaller
// than the raw payload; encodeBlockStats then deflates the block. It is a
// function of its own so that a raw block is encoded as before, and it
// keeps its dictionaries on its stack (dictSet), with each value's code
// as far as there is room, so that pass 2 need not split the lines again.
func encodeCoded[T lineText](lines lineSet[T]) (data []byte, rawLen int) {
	var dictArr [16]dictCol
	var entryArr [512]dictEntry[T]
	var slotArr [1024]int32
	var codeArr [8 << 10]byte
	dicts := dictSet[T]{cols: dictArr[:0], entries: entryArr[:0], slots: slotArr[:]}
	codes := codeArr[:0] // each value's code, in line order

	// Pass 1: every column's dictionary and the size of its region both
	// ways, every record's column count and line length.
	maxCols, minCols, counts, lens := 0, 0, 0, 0 // lens: the line lengths' bytes
	for i := range lines.len() {
		l := lines.line(i)
		n := 0
		for start := 0; start <= len(l); n++ {
			end := indexByte(l[start:], '\t')
			if end < 0 {
				end = len(l) - start
			}
			v := l[start : start+end]
			slot, e := dicts.lookup(n, v)
			fresh := e == 0
			if fresh {
				var ok bool
				if dicts, ok = dicts.add(n, v, slot); !ok {
					return nil, 0
				}
				e = int32(len(dicts.entries))
			}
			col := &dicts.cols[n]
			// A column's facts are its dictionary's, but for the empty
			// line's value: the empty value of any other line counts.
			if len(l) > 0 && (fresh || end == 0) {
				foldForm(&col.facts, v)
			}
			col.vals++
			col.raw += uvarintLen(end) + end
			if len(codes) < cap(codes) {
				codes = append(codes, dicts.entries[e-1].code)
			}
			start += end + 1
		}
		counts += uvarintLen(n)
		lens += uvarintLen(len(l))
		maxCols = max(maxCols, n)
		if i == 0 || n < minCols {
			minCols = n
		}
	}
	ragged := minCols != maxCols
	if !ragged {
		counts = 0
	}
	head := uvarintLen(maxCols) + uvarintLen(minCols) + counts
	rawLen, size := head+lens+8, head+lens+8
	if !ragged { // stored raw, the block would carry a row index
		rawLen += 8 * entries(lines.len()) * (1 + maxCols)
	}
	for _, col := range dicts.cols {
		rawLen += col.raw + uvarintLen(col.raw<<3)
		size += col.region() + uvarintLen(col.region()<<3)
	}
	if size >= rawLen {
		return nil, 0
	}

	// Pass 2: the payload laid out as encodeBlockStats lays it out, each
	// region a dictionary (k, the values' lengths, their bytes) and then a
	// code a value, written at its column's cursor; then the directory.
	h := 2 + uvarintLen(lines.len())
	p := h + 4
	data = make([]byte, p+size)
	w := p + binary.PutUvarint(data[p:], uint64(maxCols))
	w += binary.PutUvarint(data[w:], uint64(minCols))
	var cursorArr [16]int
	cursor := cursorArr[:0] // where column c's next code goes
	dir := p + head
	for c := range dicts.cols {
		cursor = append(cursor, dicts.cols[c].place(data, dir))
		dir += dicts.cols[c].region()
	}
	for _, e := range dicts.entries {
		col := &dicts.cols[e.col]
		col.lenAt += binary.PutUvarint(data[col.lenAt:], uint64(len(e.v)))
		col.textAt += copy(data[col.textAt:], e.v)
	}
	nth := 0 // the line's first value's place in line order
	for i := range lines.len() {
		l := lines.line(i)
		n := maxCols
		if ragged {
			n = 1
			for j := 0; j < len(l); j++ {
				if l[j] == '\t' {
					n++
				}
			}
			w += binary.PutUvarint(data[w:], uint64(n))
		}
		if nth+n <= len(codes) {
			for c := range n {
				data[cursor[c]] = codes[nth+c]
				cursor[c]++
			}
		} else { // past the codes pass 1 had room for: look the values up again
			for c, start := 0, 0; start <= len(l); c++ {
				end := indexByte(l[start:], '\t')
				if end < 0 {
					end = len(l) - start
				}
				_, e := dicts.lookup(c, l[start:start+end])
				data[cursor[c]] = dicts.entries[e-1].code
				cursor[c]++
				start += end + 1
			}
		}
		nth += n
	}
	w = dir
	for c, col := range dicts.cols {
		// The cursor stands at its region's end, the values before the codes.
		w += binary.PutUvarint(data[w:], dirEntry(col.region(), col.facts, data[cursor[c]-col.vals-col.text:cursor[c]-col.vals]))
	}
	for i := range lines.len() {
		w += binary.PutUvarint(data[w:], uint64(len(lines.line(i))))
	}
	binary.LittleEndian.PutUint64(data[w:], uint64(dir-p))
	sealHeader(data, h, blockFlagDict, lines.len())
	return data, rawLen
}

// dirEntry is the directory's word for a column of region bytes, of the
// given facts, whose values (coded: whose dictionary's) are text.
func dirEntry(region int, facts forms, text []byte) uint64 {
	d := uint64(region)<<3 | uint64(facts)<<1
	if holdsEscapeByte(text) {
		d |= 1
	}
	return d
}

// forms gathers the two facts Batch.Form reports of a run of values, as
// what the values seen so far break: a value not a canonical integer breaks
// IntCanon, one that looks like an integer IntNone. The encoder folds every
// value of a column into its forms, and the directory keeps them.
type forms uint8

const (
	notCanon forms = 1 << iota
	someInt
)

// formBits is what a value of each tuple.IntForm breaks.
var formBits = [...]forms{tuple.IntNone: notCanon, tuple.IntOther: notCanon | someInt, tuple.IntCanon: someInt}

// cutOther returns the length of the value s begins with, up to its first
// tab, of which i digits lead, and what the value breaks of its column's
// facts: the encoder's way for a value its scan could not classify.
func cutOther[T lineText](s T, i int) (int, forms) {
	end := indexByte(s[i:], '\t')
	if end < 0 {
		end = len(s)
	} else {
		end += i
	}
	return end, formBits[tuple.IntFormOf(s[:end])]
}

// foldForm folds v into f. Once both facts are broken it looks at no more
// values.
func foldForm[T lineText](f *forms, v T) {
	if *f != notCanon|someInt {
		*f |= formBits[tuple.IntFormOf(v)]
	}
}

// form is the run's tuple.IntForm; an empty run's is IntCanon.
func (f forms) form() int32 {
	switch f {
	case 0, someInt:
		return int32(tuple.IntCanon)
	case notCanon:
		return int32(tuple.IntNone)
	}
	return int32(tuple.IntOther)
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x int) int { return (bits.Len64(uint64(x)|1) + 6) / 7 }

// holdsEscapeByte reports whether b holds a backslash or a newline.
func holdsEscapeByte(b []byte) bool {
	return bytes.IndexByte(b, '\\') >= 0 || bytes.IndexByte(b, '\n') >= 0
}

// dictSet gathers, column by column, the distinct values of a block in the
// order they first appear, which is the order of their codes, for as long
// as no column holds more than dictMax. The encoder keeps it on its stack:
// its slices start on arrays there and outgrow them only for a block of
// more than 16 columns or 512 distinct values in all.
type dictSet[T lineText] struct {
	cols    []dictCol
	entries []dictEntry[T] // every column's values, each column's in code order
	slots   []int32        // open addressing over entries: 1 + an index, 0 where free
}

// dictEntry is a distinct value, held where the lines hold it: no string
// of its own is made for it.
type dictEntry[T lineText] struct {
	v    T
	col  int32
	code uint8
}

// dictCol is a column's dictionary: k distinct values of text bytes in
// all, whose lengths take lens bytes, and the vals values the column
// holds, which take raw bytes as a raw region, and their facts; and,
// while the encoder writes its region, where the next length and value
// bytes go.
type dictCol struct {
	k, lens, text, vals, raw int
	facts                    forms
	lenAt, textAt            int
}

// region is the byte length of the column's coded region.
func (c dictCol) region() int { return uvarintLen(c.k) + c.lens + c.text + c.vals }

// place writes k at the start of the column's region, at, and returns
// where its codes begin: the lengths and the values go between.
func (c *dictCol) place(data []byte, at int) int {
	c.lenAt = at + binary.PutUvarint(data[at:], uint64(c.k))
	c.textAt = c.lenAt + c.lens
	return c.textAt + c.text
}

// lookup returns the slot of v in column c and what it holds: 1 + the
// index of v's entry, or 0 where v is not there and goes. The hash is
// FNV-1a, inline: a coded column's values are mostly a few bytes long.
func (d *dictSet[T]) lookup(c int, v T) (slot int, e int32) {
	h := uint64(c) * 0x9e3779b97f4a7c15
	for i := 0; i < len(v); i++ {
		h = (h ^ uint64(v[i])) * 0x100000001b3
	}
	h ^= h >> 32
	mask := len(d.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := d.slots[i]
		if e == 0 || d.entries[e-1].col == int32(c) && string(d.entries[e-1].v) == string(v) {
			return i, e
		}
	}
}

// add enters v, a value of column c that lookup did not find but placed at
// slot, as the column's next code, and reports false if the column would
// then hold more than dictMax distinct values. It returns d rather than
// update it in place, which keeps the arrays d starts on off the heap.
func (d dictSet[T]) add(c int, v T, slot int) (dictSet[T], bool) {
	if c == len(d.cols) {
		d.cols = append(d.cols, dictCol{})
	}
	col := &d.cols[c]
	if col.k == dictMax {
		return d, false
	}
	d.entries = append(d.entries, dictEntry[T]{v: v, col: int32(c), code: uint8(col.k)})
	d.slots[slot] = int32(len(d.entries))
	col.k++
	col.lens += uvarintLen(len(v))
	col.text += len(v)
	if 2*len(d.entries) > len(d.slots) {
		d.slots = make([]int32, 2*len(d.slots))
		for j, e := range d.entries {
			i, _ := d.lookup(int(e.col), e.v)
			d.slots[i] = int32(j + 1)
		}
	}
	return d, true
}

// header reads what precedes a block's checksum and returns the record
// count and the header's length. A flag it does not know, or both codecs
// at once, is an error: no encoder writes either, and what such a block
// holds cannot be told.
func header(data []byte) (n uint64, h int, err error) {
	if len(data) < 2 {
		return 0, 0, fmt.Errorf("dfs: block too short")
	}
	if data[0] != blockVersion {
		return 0, 0, fmt.Errorf("dfs: unknown block version 0x%02x", data[0])
	}
	if f := data[1]; f&^(blockFlagFlate|blockFlagDict) != 0 || f == blockFlagFlate|blockFlagDict {
		return 0, 0, fmt.Errorf("dfs: unknown block flags 0x%02x", f)
	}
	n, w := binary.Uvarint(data[2:])
	if w <= 0 {
		return 0, 0, fmt.Errorf("dfs: bad block record count")
	}
	return n, 2 + w, nil
}

// Building flate state costs more than running one block through it, so
// it is pooled and reset per block, and keeps its output buffer: decoded
// lines and a batch's text are copied out of an inflater's into a string
// of their own, the compressed bytes out of a deflater's into the block.
type inflater struct {
	zr  io.ReadCloser // a flate reader, which is a flate.Resetter
	src bytes.Reader
	out bytes.Buffer
}

type deflater struct {
	zw  *flate.Writer
	out bytes.Buffer
}

var (
	deflaters = sync.Pool{New: func() any {
		zw, _ := flate.NewWriter(nil, flate.BestSpeed) // errs on a bad level only
		return &deflater{zw: zw}
	}}
	inflaters = sync.Pool{New: func() any { return &inflater{zr: flate.NewReader(nil)} }}
)

// DecodeBlock reverses EncodeBlock, reconstructing the exact record
// lines the block was sealed from.
func DecodeBlock(data []byte) ([]string, error) {
	return decodeBlockRange(nil, data, 0, math.MaxInt)
}

// openBlock checks the header and the checksum of an encoded block and
// returns its record count, its payload and whether the payload's regions
// are dictionary-coded: a flipped bit anywhere in data is an error here,
// whatever is then read of the block. A deflated payload is inflated into
// the buffer of a pooled inflater, returned as z: the caller copies what
// it keeps of the payload and then puts z back.
func openBlock(data []byte) (n uint64, payload []byte, coded bool, z *inflater, err error) {
	n, h, err := header(data)
	if err != nil {
		return 0, nil, false, nil, err
	}
	if len(data)-h < 4 {
		return 0, nil, false, nil, fmt.Errorf("dfs: block too short")
	}
	payload = data[h+4:]
	if crc32.Update(crc32.Checksum(data[:h], castagnoli), castagnoli, payload) != binary.LittleEndian.Uint32(data[h:]) {
		return 0, nil, false, nil, fmt.Errorf("dfs: block checksum mismatch")
	}
	if data[1] != blockFlagFlate {
		return n, payload, data[1] == blockFlagDict, nil, nil
	}
	z = inflaters.Get().(*inflater)
	z.src.Reset(payload)
	z.out.Reset()
	err = z.zr.(flate.Resetter).Reset(&z.src, nil)
	if err == nil {
		_, err = z.out.ReadFrom(z.zr)
	}
	if err != nil {
		return 0, nil, false, z, fmt.Errorf("dfs: block decompress: %w", err)
	}
	return n, z.out.Bytes(), false, z, nil
}

// blockShape is what one walk over a block's payload learns of it: the
// column counts of the records of a range and, per column read, where the
// range's values lie. Both ways of reading a block start from it, and a
// reader that keeps one across blocks keeps its arrays.
type blockShape struct {
	// counts is the column count of each record up to hi, from lo, or from
	// 0 in a ragged block, whose columns are stepped through by it (widths);
	// up to n in a ragged dictionary-coded block.
	counts  []int
	minCols int // the narrowest record's
	lo, hi  int // the range walked, clamped to the block
	cols    []colRegion
	// lineBytes is what the range's records take as lines: every value and
	// the tab or newline after it.
	lineBytes int
	// coded is set when the regions are dictionary-coded. dict then holds,
	// column after column, the payload offsets of each dictionary's values:
	// value j of a column starts at dict[r.dict+j] and ends at the next.
	coded bool
	dict  []int
	// index is the row index of a block that has one, where the payload
	// holds it (entry).
	index []byte
}

// entry returns slot j of the row index entry of record r, a multiple of
// indexStride: the payload offset of r's line length for j = 0, of its
// value of column j-1 otherwise.
func (s *blockShape) entry(r, j int) uint64 {
	return binary.LittleEndian.Uint64(s.index[8*((r/indexStride-1)*(1+len(s.cols))+j):])
}

// stop is where a step from record i towards to next passes a row index
// entry: the first multiple of indexStride above i, or to.
func (s *blockShape) stop(i, to int) int {
	if len(s.index) == 0 {
		return to
	}
	return min(to, (i/indexStride+1)*indexStride)
}

// widths returns the column count of each record of the range.
func (s *blockShape) widths() []int {
	if s.minCols == len(s.cols) {
		return s.counts // a uniform block's counts are the range's
	}
	return s.counts[s.lo:s.hi]
}

// colRegion locates a column in the payload: its whole region, or, once
// the walk stepped through it, the values it holds for the records of the
// range — payload[start:end] their lengths and bytes (coded: their codes),
// and vals how many they are.
type colRegion struct {
	start, end int
	vals       int
	flagged    bool  // a byte of the whole region (coded: of its values) is a backslash or a newline
	facts      forms // of every value the column holds
	dict, k    int   // coded: where the column's offsets begin in blockShape.dict, and how many values they bound
}

// walk reads the directory of a checksummed payload of n records and
// records the shape of [lo, hi), clamping the range to the block: its line
// bytes from the line lengths, and a column's values only where they are
// asked for — a column need carries (nil: all), one flagged as possibly
// holding an escape, and column 0 where a record may be the empty line. It
// steps through those from the last row index entry at or before lo (from
// the start of their regions in a block with none) up to hi and looks at
// nothing else: what is malformed in a pruned column, before that entry or
// past hi, fails the reads that reach it, and so does an entry a step
// passes that places its record elsewhere. A coded block's dictionaries
// are read whole, and so are a read column's codes' count. Every count,
// length and index entry is compared as a uint64 against the bytes left
// before it becomes an int.
func (s *blockShape) walk(p []byte, n64 uint64, coded bool, lo, hi int, need []bool) error {
	*s = blockShape{counts: s.counts[:0], cols: s.cols[:0], coded: coded, dict: s.dict[:0]}
	if n64 == 0 {
		return nil
	}
	// A record costs at least its line-length byte.
	if n64 > uint64(len(p)) || len(p) < 8 {
		return fmt.Errorf("dfs: block record count exceeds payload")
	}
	n := int(n64)
	s.hi = max(0, min(hi, n))
	s.lo = min(max(lo, 0), s.hi)
	dir := p[:len(p)-8]
	foot := binary.LittleEndian.Uint64(p[len(dir):])
	if foot > uint64(len(dir)) {
		return fmt.Errorf("dfs: bad block directory offset")
	}
	maxCols, w := uvarint(p[:foot])
	off := max(w, 0)
	minCols, w2 := uvarint(p[off:foot])
	if w <= 0 || w2 <= 0 || minCols == 0 || minCols > maxCols || maxCols > uint64(len(dir))-foot {
		return fmt.Errorf("dfs: bad block column bounds")
	}
	off += w2
	s.minCols = int(minCols)

	// The regions end where the directory begins, so their lengths place
	// them; between the header and the first are the column counts.
	s.cols = grown(s.cols, int(maxCols))[:maxCols]
	d, regions := int(foot), int(foot)
	for c := range s.cols {
		v, w := uvarint(dir[d:])
		if w <= 0 || v>>3 > uint64(regions-off) {
			return fmt.Errorf("dfs: bad block column length")
		}
		d += w
		regions -= int(v >> 3)
		s.cols[c] = colRegion{end: int(v >> 3), flagged: v&1 != 0, facts: forms(v>>1) & (notCanon | someInt)}
	}
	for c, at := 0, regions; c < len(s.cols); c++ {
		s.cols[c].start, s.cols[c].end = at, at+s.cols[c].end
		at = s.cols[c].end
	}
	lensEnd := len(dir) // the line lengths end where the row index begins
	if !coded && minCols == maxCols && n > indexStride {
		size := uint64(entries(n)) * (1 + maxCols) * 8
		if size > uint64(len(dir)-d) {
			return fmt.Errorf("dfs: block row index overruns the directory")
		}
		lensEnd -= int(size)
		s.index = dir[lensEnd:]
	}
	// A line is made of payload bytes, or of a coded block's values: no run
	// of them is longer than those.
	limit := len(p)
	if coded {
		var err error
		if limit, err = s.dictionaries(p); err != nil {
			return err
		}
	}
	// The walk starts from the last entry at or before lo.
	first := 0
	if len(s.index) > 0 && s.lo >= indexStride {
		first = s.lo / indexStride * indexStride
		at := s.entry(first, 0)
		if at < uint64(d) || at > uint64(lensEnd) {
			return fmt.Errorf("dfs: block row index entry past the line lengths")
		}
		d = int(at)
	}
	d, _, ok := s.sumLengths(dir[:lensEnd], d, first, s.lo, limit)
	_, sum, ok2 := s.sumLengths(dir[:lensEnd], d, s.lo, s.hi, limit)
	if !ok || !ok2 {
		return fmt.Errorf("dfs: bad block line length")
	}
	s.lineBytes = sum + s.hi - s.lo // a newline each

	if minCols == maxCols {
		// Sized by the range: a short read of a long block grows nothing
		// by the block.
		s.counts = grown(s.counts, s.hi-s.lo)[:s.hi-s.lo]
		for i := range s.counts {
			s.counts[i] = s.minCols
		}
	} else {
		// A ragged block's widths are stepped through from record 0, and a
		// coded column's codes are counted against every record's width.
		m := s.hi
		if coded {
			m = n
		}
		s.counts = grown(s.counts, m)[:m]
		for i := range s.counts {
			c, w := uvarint(p[off:regions])
			if w <= 0 || c < minCols || c > maxCols {
				return fmt.Errorf("dfs: bad block column count")
			}
			off += w
			s.counts[i] = int(c)
		}
	}

	for c := range s.cols {
		r := &s.cols[c]
		if !carries(need, c) && !r.flagged && (c > 0 || s.minCols > 1) {
			continue
		}
		if coded {
			if !s.stepCodes(p, c, n) {
				return fmt.Errorf("dfs: bad block column %d codes", c)
			}
			continue
		}
		start := r.start
		if first > 0 {
			at := s.entry(first, 1+c)
			if at < uint64(r.start) || at > uint64(r.end) {
				return fmt.Errorf("dfs: block row index entry past column %d's region", c)
			}
			start = int(at)
		}
		off, _, ok := s.skipValues(p[:r.end], start, first, s.lo, c)
		end, vals, ok2 := s.skipValues(p[:r.end], off, s.lo, s.hi, c)
		if !ok || !ok2 {
			return fmt.Errorf("dfs: block column %d overruns its region", c)
		}
		r.start, r.end, r.vals = off, end, vals
	}
	s.index = nil // the payload's: a shape kept across blocks holds arrays, not data
	return nil
}

// dictionaries reads the dictionary that heads each coded region into
// dict, moves the region's start to its codes, and returns what no run of
// the block's lines is longer than: a code's longest value and a tab or
// newline, for every code.
func (s *blockShape) dictionaries(p []byte) (limit int, err error) {
	// Each region's k first, so that dict is sized once: a length takes a
	// byte at least, so k is held to the region's room for k lengths.
	total := 0
	for c := range s.cols {
		r := &s.cols[c]
		k, w := uvarint(p[r.start:r.end])
		if w <= 0 || k == 0 || k > dictMax || k > uint64(r.end-r.start-w) {
			return 0, fmt.Errorf("dfs: bad block column %d dictionary size", c)
		}
		r.start += w
		r.dict, r.k = total, int(k)
		total += r.k + 1
	}
	s.dict = grown(s.dict, total)
	for c := range s.cols {
		r := &s.cols[c]
		at, longest := r.start, 0
		s.dict = append(s.dict, 0)
		for range r.k {
			l, w := uvarint(p[at:r.end])
			if w <= 0 || l > uint64(r.end-at) {
				return 0, fmt.Errorf("dfs: block column %d dictionary overruns its region", c)
			}
			at += w
			s.dict = append(s.dict, s.dict[len(s.dict)-1]+int(l))
			longest = max(longest, int(l))
		}
		text := s.dict[len(s.dict)-1]
		if text > r.end-at {
			return 0, fmt.Errorf("dfs: block column %d dictionary overruns its region", c)
		}
		for j := r.dict; j < len(s.dict); j++ {
			s.dict[j] += at
		}
		r.start = at + text
		hi, lo := bits.Mul64(uint64(r.end-r.start), uint64(longest)+1)
		if hi != 0 || lo > uint64(math.MaxInt-limit) {
			limit = math.MaxInt
		} else {
			limit += int(lo)
		}
	}
	return limit, nil
}

// stepCodes finds the codes of records [lo, hi) in coded column c of a
// block of n records, whose region must hold one code for every value the
// column holds, each below its dictionary's size.
func (s *blockShape) stepCodes(p []byte, c, n int) bool {
	r := &s.cols[c]
	before, vals, all := s.lo, s.hi-s.lo, n
	if c >= s.minCols { // counts runs from record 0 to n: not every record holds c
		before, vals, all = 0, 0, 0
		for i, cols := range s.counts {
			if cols > c {
				switch {
				case i < s.lo:
					before++
				case i < s.hi:
					vals++
				}
				all++
			}
		}
	}
	if all != r.end-r.start {
		return false
	}
	start := r.start + before
	for _, code := range p[start : start+vals] {
		if int(code) >= r.k {
			return false
		}
	}
	r.start, r.end, r.vals = start, start+vals, vals
	return true
}

// sumLengths steps from off over the line lengths of records [from, to)
// in b, whose sum may not pass limit, and returns the offset after them
// and the sum. A row index entry it steps past must place its record's
// line length where the step stands.
func (s *blockShape) sumLengths(b []byte, off, from, to, limit int) (next, sum int, ok bool) {
	for i := from; i < to; {
		stop := s.stop(i, to)
		for ; i < stop; i++ {
			if off >= len(b) {
				return 0, 0, false
			}
			l, w := uint64(b[off]), 1 // see skipValues
			if l >= 0x80 {
				l, w = binary.Uvarint(b[off:])
			}
			if w <= 0 || l > uint64(limit-sum) {
				return 0, 0, false
			}
			off, sum = off+w, sum+int(l)
		}
		if i < to && s.entry(i, 0) != uint64(off) {
			return 0, 0, false
		}
	}
	return off, sum, true
}

// skipValues steps from off over the values that records [from, to) hold
// in column c, whose region p ends with, checking each length against the
// bytes left there. It returns the offset after the last and how many
// values there were. A row index entry it steps past must place its
// record's value where the step stands.
func (s *blockShape) skipValues(p []byte, off, from, to, c int) (next, vals int, ok bool) {
	ragged := c >= s.minCols // below minCols every record holds the column
	for i := from; i < to; {
		stop := s.stop(i, to)
		for ; i < stop; i++ {
			if ragged && s.counts[i] <= c {
				continue
			}
			if off >= len(p) {
				return 0, 0, false
			}
			// Nearly every length is one byte: binary.Uvarint's case for it,
			// taken here, because a call per value is a tenth of the walk.
			l, w := uint64(p[off]), 1
			if l >= 0x80 {
				l, w = binary.Uvarint(p[off:])
			}
			off += w
			if w <= 0 || l > uint64(len(p)-off) {
				return 0, 0, false
			}
			off += int(l)
			vals++
		}
		if i < to && s.entry(i, 1+c) != uint64(off) {
			return 0, 0, false
		}
	}
	return off, vals, true
}

// dictOf returns the value offsets of column c's dictionary, or nil in a
// block that is not dictionary-coded.
func (s *blockShape) dictOf(c int) []int {
	if !s.coded {
		return nil
	}
	return s.dict[s.cols[c].dict : s.cols[c].dict+s.cols[c].k+1]
}

// grown returns s emptied, with room for n elements. Where it has less it
// allocates once, in every build: slices.Grow's append of a make is two
// allocations under the race detector, which turns off the compiler's
// fusing of them. It leaves room for an eighth more, about what append's
// rounding up to a size class leaves, so that the next block or range of
// about this size fits.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n+n/8)
	}
	return s[:0]
}

// valueAt reads the length-prefixed value at payload[off:], which the
// walk has validated, and returns where its bytes begin and end.
func valueAt(payload []byte, off int) (start, end int) {
	l, w := uint64(payload[off]), 1
	if l >= 0x80 {
		l, w = binary.Uvarint(payload[off:])
	}
	return off + w, off + w + int(l)
}

// decodeBlockRange appends records [lo, hi) of the block to dst, clamping
// the range to the block. Only the records asked for are materialised, as
// substrings of one backing string built in a single copy: each is cut as
// soon as it is written, and later writes leave its bytes as they are.
func decodeBlockRange(dst []string, data []byte, lo, hi int) ([]string, error) {
	return new(blockShape).decodeLines(dst, data, lo, hi)
}

// decodeLines is decodeBlockRange walking the block into s, whose arrays
// a reader of many blocks keeps from one to the next.
func (s *blockShape) decodeLines(dst []string, data []byte, lo, hi int) ([]string, error) {
	n, payload, coded, z, err := openBlock(data)
	if z != nil {
		defer inflaters.Put(z)
	}
	if err != nil {
		return dst, err
	}
	if err := s.walk(payload, n, coded, lo, hi, nil); err != nil {
		return dst, err
	}
	if s.lo == s.hi {
		return dst, nil
	}

	// Row-major rebuild: each column's region start serves as its cursor.
	// A line's first value takes no tab.
	var text strings.Builder
	text.Grow(s.lineBytes - (s.hi - s.lo))
	dst = slices.Grow(dst, s.hi-s.lo)
	coded, dict := s.coded, s.dict
	for _, cols := range s.widths() {
		start := text.Len()
		for c := 0; c < cols; c++ {
			if c > 0 {
				text.WriteByte('\t')
			}
			r := &s.cols[c]
			if !coded {
				start, end := valueAt(payload, r.start)
				r.start = end
				text.Write(payload[start:end])
				continue
			}
			j := r.dict + int(payload[r.start])
			r.start++
			text.Write(payload[dict[j]:dict[j+1]])
		}
		dst = append(dst, text.String()[start:])
	}
	return dst, nil
}

// uvarint is binary.Uvarint with the one-byte case, which nearly every
// count and length in a block is, taken inline.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return binary.Uvarint(b)
}
