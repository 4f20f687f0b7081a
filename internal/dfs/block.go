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

// decodeBlockRange appends records [lo, hi) of the block to dst, clamping
// the range to the block. The layout is column-grouped, so the walk
// covers and bounds-checks the whole payload whatever the range (a
// malformed block fails for every range alike), but only the records
// asked for are materialised, as substrings of one backing string built
// in a single copy.
func decodeBlockRange(dst []string, data []byte, lo, hi int) ([]string, error) {
	if len(data) < 2 {
		return dst, fmt.Errorf("dfs: block too short")
	}
	if data[0] != blockVersion {
		return dst, fmt.Errorf("dfs: unknown block version 0x%02x", data[0])
	}
	flags := data[1]
	rest := data[2:]
	n64, w := binary.Uvarint(rest)
	if w <= 0 {
		return dst, fmt.Errorf("dfs: bad block record count")
	}
	payload := rest[w:]
	if flags&blockFlagFlate != 0 {
		z := inflaters.Get().(*inflater)
		defer inflaters.Put(z)
		z.src.Reset(payload)
		z.out.Reset()
		err := z.zr.(flate.Resetter).Reset(&z.src, nil)
		if err == nil {
			_, err = z.out.ReadFrom(z.zr)
		}
		if err != nil {
			return dst, fmt.Errorf("dfs: block decompress: %w", err)
		}
		payload = z.out.Bytes()
	}
	if n64 == 0 {
		return dst, nil
	}
	// Counts and lengths are compared as uint64 against the bytes left
	// before any becomes an int: a record costs at least its column-count
	// byte, a column its length byte.
	if n64 > uint64(len(payload)) {
		return dst, fmt.Errorf("dfs: block record count exceeds payload")
	}
	n := int(n64)
	maxCols64, w := uvarint(payload)
	if w <= 0 || maxCols64 > uint64(len(payload)) {
		return dst, fmt.Errorf("dfs: bad block maxCols")
	}
	off := w
	maxCols := int(maxCols64)
	colCounts := make([]int, n)
	for i := range colCounts {
		c, w := uvarint(payload[off:])
		if w <= 0 {
			return dst, fmt.Errorf("dfs: bad block column count")
		}
		off += w
		if c > maxCols64 || c == 0 {
			return dst, fmt.Errorf("dfs: block column count out of range")
		}
		colCounts[i] = int(c)
	}
	hi = max(0, min(hi, n))
	lo = min(max(lo, 0), hi)

	// Column-major walk: colStart[c] is where column c's values for records
	// lo onwards begin, size the text of [lo, hi) with a tab per value.
	colStart := make([]int, maxCols)
	size := 0
	for c := 0; c < maxCols; c++ {
		for i, cols := range colCounts {
			if i == lo {
				colStart[c] = off
			}
			if cols <= c {
				continue
			}
			l, w := uvarint(payload[off:])
			if w <= 0 {
				return dst, fmt.Errorf("dfs: bad block value length")
			}
			off += w
			if l > uint64(len(payload)-off) {
				return dst, fmt.Errorf("dfs: block value overruns payload")
			}
			off += int(l)
			if i >= lo && i < hi {
				size += int(l) + 1
			}
		}
	}
	if lo == hi {
		return dst, nil
	}

	// Row-major rebuild: a cursor per column re-reads the lengths the walk
	// validated. A line's first value takes no tab.
	var text strings.Builder
	text.Grow(size - (hi - lo))
	ends := make([]int, hi-lo)
	for i := lo; i < hi; i++ {
		for c := 0; c < colCounts[i]; c++ {
			if c > 0 {
				text.WriteByte('\t')
			}
			l, w := uvarint(payload[colStart[c]:])
			start := colStart[c] + w
			colStart[c] = start + int(l)
			text.Write(payload[start:colStart[c]])
		}
		ends[i-lo] = text.Len()
	}
	all := text.String()
	dst = slices.Grow(dst, hi-lo)
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
