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
)

// The block format is the at-rest representation of file records: a file
// is a sequence of sealed blocks plus an unsealed tail. Each block holds
// a batch of records in column-grouped, length-prefixed form — record
// values (the tab-separated fields of each line) are regrouped so all
// values of column 0 are stored contiguously, then all of column 1, and
// so on. Column grouping puts like-typed bytes next to each other, which
// is what makes the optional per-block flate compression effective on
// tabular data. Splitting on raw tabs and re-joining with tabs is an
// exact involution for arbitrary line content (the tuple codec escapes
// tabs inside values, and even unescaped content round-trips), so block
// encoding is invisible to every consumer: digests are taken over
// canonical record bytes, never over block bytes (PR 2's separation),
// which is what lets the storage representation change freely here.
//
// Layout:
//
//	byte 0: format version (blockVersion)
//	byte 1: flags (blockFlagFlate: payload is flate-compressed)
//	uvarint: record count (always uncompressed, so counting is cheap)
//	4 bytes: CRC-32C of every byte before them and of the stored payload
//	payload (possibly compressed):
//	   uvarint: maxCols — the widest record's column count
//	   uvarint: minCols — the narrowest record's
//	   per record, unless minCols == maxCols: uvarint column count
//	   for c in [0, maxCols), the region of column c:
//	      for each record with >c columns: uvarint value length, value bytes
//	   directory:
//	      per column: uvarint, twice its region's byte length, plus one if
//	         a byte of the region is a backslash or a newline
//	      per record: uvarint line length
//	   8 bytes: where in the payload the directory begins
//
// The checksum is what vouches for a block: openBlock verifies it on every
// read, and past it a reader looks only at what it was asked for (walk).
const (
	blockVersion   = 0x02
	blockFlagFlate = 0x01
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DefaultBlockSize is the target encoded size of one sealed block.
const DefaultBlockSize = 256 << 10

// EncodeBlock serializes a batch of record lines into one block.
// compress enables per-block flate (BestSpeed); incompressible payloads
// are stored raw even when compression is requested, so decoding never
// pays inflation for nothing.
func EncodeBlock(lines []string, compress bool) []byte {
	data, _ := encodeBlockStats(lines, compress)
	return data
}

// encodeBlockStats is EncodeBlock plus the uncompressed payload length,
// which the FS folds into its compression-ratio accounting. The block is
// laid out exactly before a byte of it is written, header first, so an
// uncompressed block is built where it is kept, with no spare capacity; a
// compressed one is one copy out of the deflater.
func encodeBlockStats(lines []string, compress bool) (data []byte, rawLen int) {
	// Pass 1: the payload's size — every value's length prefix and bytes,
	// counted into its column's region, every record's column count and
	// line length.
	var regionArr, cursorArr [16]int
	regions := regionArr[:0]                     // region c's byte length
	maxCols, minCols, counts, tail := 0, 0, 0, 0 // tail: the directory's bytes
	for i, l := range lines {
		n := 0
		for start := 0; start <= len(l); n++ {
			end := strings.IndexByte(l[start:], '\t')
			if end < 0 {
				end = len(l) - start
			}
			if n == len(regions) {
				regions = append(regions, 0)
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
	if !ragged {
		counts = 0
	}
	// The layout, as offsets into data: the header up to h, the checksum,
	// then the payload from p — its head, the column counts, the regions
	// from the cursors' starts, and from dir the directory: an entry a
	// column, then the line lengths and the trailer.
	h := 2 + uvarintLen(len(lines))
	p := h + 4
	dir := p + uvarintLen(maxCols) + uvarintLen(minCols) + counts
	cursor := cursorArr[:0] // where column c's next value goes
	for _, r := range regions {
		cursor = append(cursor, dir)
		dir += r
		tail += uvarintLen(r << 1)
	}
	rawLen = dir + tail + 8 - p

	// Pass 2: each record's values, each at its column's cursor; then the
	// directory.
	data = make([]byte, p+rawLen)
	w := p + binary.PutUvarint(data[p:], uint64(maxCols))
	w += binary.PutUvarint(data[w:], uint64(minCols))
	for _, l := range lines {
		n := 0
		for start := 0; start <= len(l); n++ {
			end := strings.IndexByte(l[start:], '\t')
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
		d := uint64(r) << 1
		if holdsEscapeByte(data[cursor[c]-r : cursor[c]]) { // the cursor stands at its region's end
			d |= 1
		}
		w += binary.PutUvarint(data[w:], d)
	}
	for _, l := range lines {
		w += binary.PutUvarint(data[w:], uint64(len(l)))
	}
	binary.LittleEndian.PutUint64(data[w:], uint64(dir-p))

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
	data[0], data[1] = blockVersion, flags
	binary.PutUvarint(data[2:h], uint64(len(lines)))
	binary.LittleEndian.PutUint32(data[h:], crc32.Update(crc32.Checksum(data[:h], castagnoli), castagnoli, data[p:]))
	return data, rawLen
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x int) int { return (bits.Len64(uint64(x)|1) + 6) / 7 }

// holdsEscapeByte reports whether b holds a backslash or a newline.
func holdsEscapeByte(b []byte) bool {
	return bytes.IndexByte(b, '\\') >= 0 || bytes.IndexByte(b, '\n') >= 0
}

// BlockRecords reports how many records data holds without decoding (or
// decompressing) the payload.
func BlockRecords(data []byte) (int, error) {
	if len(data) < 2 || data[0] != blockVersion {
		return 0, fmt.Errorf("dfs: bad block header")
	}
	n, w := binary.Uvarint(data[2:])
	if w <= 0 {
		return 0, fmt.Errorf("dfs: bad block record count")
	}
	return int(n), nil
}

// Building flate state costs more than running one block through it, so
// it is pooled and reset per block, and keeps its output buffer: decoded
// lines are copied out of an inflater's into a string of their own, the
// compressed bytes out of a deflater's into the block.
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
// returns its record count and payload: a flipped bit anywhere in data is
// an error here, whatever is then read of the block. A compressed payload
// is inflated into the buffer of a pooled inflater, returned as z: the
// caller copies what it keeps of the payload and then puts z back.
func openBlock(data []byte) (n uint64, payload []byte, z *inflater, err error) {
	if len(data) < 2 {
		return 0, nil, nil, fmt.Errorf("dfs: block too short")
	}
	if data[0] != blockVersion {
		return 0, nil, nil, fmt.Errorf("dfs: unknown block version 0x%02x", data[0])
	}
	n, w := binary.Uvarint(data[2:])
	if w <= 0 {
		return 0, nil, nil, fmt.Errorf("dfs: bad block record count")
	}
	head := data[:2+w]
	if len(data)-len(head) < 4 {
		return 0, nil, nil, fmt.Errorf("dfs: block too short")
	}
	payload = data[len(head)+4:]
	if crc32.Update(crc32.Checksum(head, castagnoli), castagnoli, payload) != binary.LittleEndian.Uint32(data[len(head):]) {
		return 0, nil, nil, fmt.Errorf("dfs: block checksum mismatch")
	}
	if data[1]&blockFlagFlate == 0 {
		return n, payload, nil, nil
	}
	z = inflaters.Get().(*inflater)
	z.src.Reset(payload)
	z.out.Reset()
	err = z.zr.(flate.Resetter).Reset(&z.src, nil)
	if err == nil {
		_, err = z.out.ReadFrom(z.zr)
	}
	if err != nil {
		return 0, nil, z, fmt.Errorf("dfs: block decompress: %w", err)
	}
	return n, z.out.Bytes(), z, nil
}

// blockShape is what one walk over a block's payload learns of it: the
// column counts of the records of a range and, per column read, where the
// range's values lie. Both ways of reading a block start from it, and a
// reader that keeps one across blocks keeps its arrays.
type blockShape struct {
	// counts is the column count of each record up to hi, from lo, or from
	// 0 in a ragged block, whose columns are stepped through by it (widths).
	counts  []int
	minCols int // the narrowest record's
	lo, hi  int // the range walked, clamped to the block
	cols    []colRegion
	// lineBytes is what the range's records take as lines: every value and
	// the tab or newline after it.
	lineBytes int
}

// widths returns the column count of each record of the range.
func (s *blockShape) widths() []int { return s.counts[len(s.counts)-(s.hi-s.lo):] }

// colRegion locates a column in the payload: its whole region, or, once
// the walk stepped through it, the values it holds for the records of the
// range — payload[start:end] their lengths and bytes, vals how many they
// are and text the bytes of the values alone.
type colRegion struct {
	start, end int
	vals, text int
	flagged    bool // a byte of the whole region is a backslash or a newline
}

// walk reads the directory of a checksummed payload of n records and
// records the shape of [lo, hi), clamping the range to the block: its line
// bytes from the line lengths, and a column's values only where they are
// asked for — a column need carries (nil: all), one flagged as possibly
// holding an escape, and column 0 where a record may be the empty line. It
// steps through those from the start of their regions up to hi and looks
// at nothing else: what is malformed in a pruned column, or past hi, fails
// the reads that reach it. Every count and length is compared as a uint64
// against the bytes left before it becomes an int.
func (s *blockShape) walk(p []byte, n64 uint64, lo, hi int, need []bool) error {
	*s = blockShape{counts: s.counts[:0], cols: s.cols[:0]}
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
	s.cols = slices.Grow(s.cols, int(maxCols))[:maxCols]
	d, regions := int(foot), int(foot)
	for c := range s.cols {
		v, w := uvarint(dir[d:])
		if w <= 0 || v>>1 > uint64(regions-off) {
			return fmt.Errorf("dfs: bad block column length")
		}
		d += w
		regions -= int(v >> 1)
		s.cols[c] = colRegion{end: int(v >> 1), flagged: v&1 != 0}
	}
	for c, at := 0, regions; c < len(s.cols); c++ {
		s.cols[c].start, s.cols[c].end = at, at+s.cols[c].end
		at = s.cols[c].end
	}
	// A line is made of payload bytes: no run of them is longer than it.
	d, _, ok := sumLengths(dir, d, s.lo, len(p))
	_, sum, ok2 := sumLengths(dir, d, s.hi-s.lo, len(p))
	if !ok || !ok2 {
		return fmt.Errorf("dfs: bad block line length")
	}
	s.lineBytes = sum + s.hi - s.lo // a newline each

	s.counts = slices.Grow(s.counts, n) // once for every range of a block this size
	if minCols == maxCols {
		s.counts = s.counts[:s.hi-s.lo]
		for i := range s.counts {
			s.counts[i] = s.minCols
		}
	} else {
		s.counts = s.counts[:s.hi]
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
		off, _, _, ok := s.skipValues(p[:r.end], r.start, 0, s.lo, c)
		end, vals, extra, ok2 := s.skipValues(p[:r.end], off, s.lo, s.hi, c)
		if !ok || !ok2 {
			return fmt.Errorf("dfs: block column %d overruns its region", c)
		}
		*r = colRegion{start: off, end: end, vals: vals, text: end - off - vals - extra, flagged: r.flagged}
	}
	return nil
}

// sumLengths steps from off over k uvarints of b, whose sum may not pass
// limit, and returns the offset after them and the sum.
func sumLengths(b []byte, off, k, limit int) (next, sum int, ok bool) {
	for ; k > 0 && off < len(b); k-- {
		l, w := uint64(b[off]), 1 // see skipValues
		if l >= 0x80 {
			l, w = binary.Uvarint(b[off:])
		}
		if w <= 0 || l > uint64(limit-sum) {
			return 0, 0, false
		}
		off, sum = off+w, sum+int(l)
	}
	return off, sum, k == 0
}

// skipValues steps from off over the values that records [from, to) hold
// in column c, whose region p ends with, checking each length against the
// bytes left there. It returns the offset after the last, how many values
// there were and the bytes their lengths took beyond one each.
func (s *blockShape) skipValues(p []byte, off, from, to, c int) (next, vals, extra int, ok bool) {
	ragged := c >= s.minCols // below minCols every record holds the column
	for i := from; i < to; i++ {
		if ragged && s.counts[i] <= c {
			continue
		}
		if off >= len(p) {
			return 0, 0, 0, false
		}
		// Nearly every length is one byte: binary.Uvarint's case for it,
		// taken here, because a call per value is a tenth of the walk.
		l, w := uint64(p[off]), 1
		if l >= 0x80 {
			l, w = binary.Uvarint(p[off:])
			extra += w - 1
		}
		off += w
		if w <= 0 || l > uint64(len(p)-off) {
			return 0, 0, 0, false
		}
		off += int(l)
		vals++
	}
	return off, vals, extra, true
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
// substrings of one backing string built in a single copy.
func decodeBlockRange(dst []string, data []byte, lo, hi int) ([]string, error) {
	n, payload, z, err := openBlock(data)
	if z != nil {
		defer inflaters.Put(z)
	}
	if err != nil {
		return dst, err
	}
	var s blockShape
	if err := s.walk(payload, n, lo, hi, nil); err != nil {
		return dst, err
	}
	if s.lo == s.hi {
		return dst, nil
	}

	// Row-major rebuild: each column's region start serves as its cursor.
	// A line's first value takes no tab.
	var text strings.Builder
	text.Grow(s.lineBytes - (s.hi - s.lo))
	ends := make([]int, s.hi-s.lo)
	for i, cols := range s.widths() {
		for c := 0; c < cols; c++ {
			if c > 0 {
				text.WriteByte('\t')
			}
			start, end := valueAt(payload, s.cols[c].start)
			s.cols[c].start = end
			text.Write(payload[start:end])
		}
		ends[i] = text.Len()
	}
	all := text.String()
	dst = slices.Grow(dst, s.hi-s.lo)
	start := 0
	for _, end := range ends {
		dst = append(dst, all[start:end])
		start = end
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
