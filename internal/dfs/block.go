package dfs

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
//	payload (possibly compressed):
//	   uvarint: maxCols — the widest record's column count
//	   per record: uvarint column count
//	   for c in [0, maxCols): for each record with >c columns:
//	      uvarint value length, value bytes
const (
	blockVersion   = 0x01
	blockFlagFlate = 0x01
)

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
// which the FS folds into its compression-ratio accounting.
func encodeBlockStats(lines []string, compress bool) (data []byte, rawLen int) {
	// Pass 1: find the field spans of every line. starts/ends are flat,
	// row-major, and sized once: a line has one span more than it has
	// tabs. pre[i] is the index of line i's first span.
	logical, spans := 0, len(lines)
	for _, l := range lines {
		logical += len(l) + 1
		spans += strings.Count(l, "\t")
	}
	colCounts := make([]int, len(lines))
	pre := make([]int, len(lines)+1)
	starts := make([]int, 0, spans)
	ends := make([]int, 0, spans)
	maxCols := 0
	for i, l := range lines {
		n := 0
		start := 0
		for {
			idx := strings.IndexByte(l[start:], '\t')
			if idx < 0 {
				starts = append(starts, start)
				ends = append(ends, len(l))
				n++
				break
			}
			starts = append(starts, start)
			ends = append(ends, start+idx)
			start += idx + 1
			n++
		}
		colCounts[i] = n
		pre[i+1] = pre[i] + n
		if n > maxCols {
			maxCols = n
		}
	}

	// Pass 2: column-grouped payload.
	payload := make([]byte, 0, logical+len(lines)*2+16)
	payload = binary.AppendUvarint(payload, uint64(maxCols))
	for _, n := range colCounts {
		payload = binary.AppendUvarint(payload, uint64(n))
	}
	for c := 0; c < maxCols; c++ {
		for i, l := range lines {
			if colCounts[i] <= c {
				continue
			}
			s, e := starts[pre[i]+c], ends[pre[i]+c]
			payload = binary.AppendUvarint(payload, uint64(e-s))
			payload = append(payload, l[s:e]...)
		}
	}
	rawLen = len(payload)

	flags := byte(0)
	if compress && rawLen > 0 {
		var zb bytes.Buffer
		zb.Grow(rawLen / 2)
		zw := deflaters.Get().(*flate.Writer)
		zw.Reset(&zb)
		if _, err := zw.Write(payload); err == nil && zw.Close() == nil && zb.Len() < rawLen {
			payload = zb.Bytes()
			flags |= blockFlagFlate
		}
		deflaters.Put(zw)
	}

	data = make([]byte, 0, 2+binary.MaxVarintLen64+len(payload))
	data = append(data, blockVersion, flags)
	data = binary.AppendUvarint(data, uint64(len(lines)))
	return append(data, payload...), rawLen
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
// it is pooled and reset per block. An inflater also keeps its output
// buffer: decoded lines are copied out of it into a string of their own.
type inflater struct {
	zr  io.ReadCloser // a flate reader, which is a flate.Resetter
	src bytes.Reader
	out bytes.Buffer
}

var (
	deflaters = sync.Pool{New: func() any {
		zw, _ := flate.NewWriter(nil, flate.BestSpeed) // errs on a bad level only
		return zw
	}}
	inflaters = sync.Pool{New: func() any { return &inflater{zr: flate.NewReader(nil)} }}
)

// DecodeBlock reverses EncodeBlock, reconstructing the exact record
// lines the block was sealed from.
func DecodeBlock(data []byte) ([]string, error) {
	return decodeBlockRange(nil, data, 0, math.MaxInt)
}

// openBlock checks the header of an encoded block and returns its record
// count and payload. A compressed payload is inflated into the buffer of a
// pooled inflater, returned as z: the caller copies what it keeps of the
// payload and then puts z back.
func openBlock(data []byte) (n uint64, payload []byte, z *inflater, err error) {
	if len(data) < 2 {
		return 0, nil, nil, fmt.Errorf("dfs: block too short")
	}
	if data[0] != blockVersion {
		return 0, nil, nil, fmt.Errorf("dfs: unknown block version 0x%02x", data[0])
	}
	rest := data[2:]
	n, w := binary.Uvarint(rest)
	if w <= 0 {
		return 0, nil, nil, fmt.Errorf("dfs: bad block record count")
	}
	payload = rest[w:]
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
// column count of every record and, per column, where the values of a
// record range lie. Both ways of reading a block start from it, and a
// reader that keeps one across blocks keeps its arrays.
type blockShape struct {
	counts  []int // column count of each record of the block
	minCols int   // the narrowest record's
	lo, hi  int   // the range walked, clamped to the block
	cols    []colRegion
	// lineBytes is what the range's records take as lines: every value and
	// the tab or newline after it.
	lineBytes int
}

// colRegion locates, in the payload, the values one column holds for the
// records of the range: payload[start:end] is their lengths and bytes,
// vals how many they are and text the bytes of the values alone.
type colRegion struct {
	start, end int
	vals, text int
}

// walk validates a whole payload of n records, column by column, and
// records the shape of [lo, hi), clamping the range to the block. The
// layout is column-grouped, so the walk covers and bounds-checks every
// value whatever the range: a malformed block fails for every range alike.
func (s *blockShape) walk(payload []byte, n64 uint64, lo, hi int) error {
	*s = blockShape{counts: s.counts[:0], cols: s.cols[:0]}
	if n64 == 0 {
		return nil
	}
	// Counts and lengths are compared as uint64 against the bytes left
	// before any becomes an int: a record costs at least its column-count
	// byte, a column its length byte.
	if n64 > uint64(len(payload)) {
		return fmt.Errorf("dfs: block record count exceeds payload")
	}
	n := int(n64)
	maxCols64, w := uvarint(payload)
	if w <= 0 || maxCols64 > uint64(len(payload)) {
		return fmt.Errorf("dfs: bad block maxCols")
	}
	off := w
	s.counts = slices.Grow(s.counts, n)[:n]
	s.minCols = int(maxCols64)
	for i := range s.counts {
		c, w := uvarint(payload[off:])
		if w <= 0 {
			return fmt.Errorf("dfs: bad block column count")
		}
		off += w
		if c > maxCols64 || c == 0 {
			return fmt.Errorf("dfs: block column count out of range")
		}
		s.counts[i] = int(c)
		s.minCols = min(s.minCols, int(c))
	}
	s.hi = max(0, min(hi, n))
	s.lo = min(max(lo, 0), s.hi)

	s.cols = slices.Grow(s.cols, int(maxCols64))[:maxCols64]
	for c := range s.cols {
		r := &s.cols[c]
		var extra int
		var err error
		if off, _, _, err = skipValues(payload, off, s.counts[:s.lo], c); err != nil {
			return err
		}
		r.start = off
		if off, r.vals, extra, err = skipValues(payload, off, s.counts[s.lo:s.hi], c); err != nil {
			return err
		}
		r.end = off
		r.text = r.end - r.start - r.vals - extra
		s.lineBytes += r.text + r.vals
		if off, _, _, err = skipValues(payload, off, s.counts[s.hi:], c); err != nil {
			return err
		}
	}
	return nil
}

// skipValues steps from off over the values that the records with the
// given column counts hold in column c, checking each length against the
// bytes left. It returns the offset after the last, how many values there
// were and the bytes their lengths took beyond one each.
func skipValues(payload []byte, off int, counts []int, c int) (end, vals, extra int, err error) {
	for _, cols := range counts {
		if cols <= c {
			continue
		}
		if off >= len(payload) {
			return 0, 0, 0, fmt.Errorf("dfs: bad block value length")
		}
		// Nearly every length is one byte: binary.Uvarint's case for it,
		// taken here, because a call per value is a tenth of the walk.
		l, w := uint64(payload[off]), 1
		if l >= 0x80 {
			if l, w = binary.Uvarint(payload[off:]); w <= 0 {
				return 0, 0, 0, fmt.Errorf("dfs: bad block value length")
			}
			extra += w - 1
		}
		off += w
		if l > uint64(len(payload)-off) {
			return 0, 0, 0, fmt.Errorf("dfs: block value overruns payload")
		}
		off += int(l)
		vals++
	}
	return off, vals, extra, nil
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
	if err := s.walk(payload, n, lo, hi); err != nil {
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
	for i, cols := range s.counts[s.lo:s.hi] {
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
