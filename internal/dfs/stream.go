package dfs

import "clusterbft/internal/digest"

// Streaming access to block-backed files. A Reader exposes a file (or a
// sorted part-file tree) as an indexed sequence of records without
// materializing the whole file: ReadRange returns record lines, and
// ReadColumns serves one segment's records through a Batch (a sealed
// block's as the column spans it stores, held lines where they are);
// either decodes only the blocks a range overlaps. Appends need no mirror
// image: FS.Append already seals and spills batch by batch. A Reader never
// hands out encoded bytes, so everything the FS guarantees about counters
// and spilling holds for streamed access too.

// rseg is one contiguous run of records inside a Reader: either a
// sealed block (decoded on demand) or a snapshot of a part file's unsealed
// tail (held directly).
type rseg struct {
	blk      *block
	tail     lineSet[string]
	start, n int // the segment covers records [start, start+n) of the Reader
}

// Reader is a positioned, random-access view over the records of a file
// or file tree, snapshotted at open time (appends after open are not
// visible, matching the copy semantics of ReadTree). The zero value is
// an empty reader, and every method is safe for concurrent use.
type Reader struct {
	fs    *FS
	segs  []rseg
	total int
	most  int // the most records a segment holds
}

// OpenReader opens a streaming reader over the file at path. The file's
// full logical bytes are charged to the read counter at open, exactly
// as a ReadTree call would.
func (fs *FS) OpenReader(path string) (*Reader, error) { return fs.open(path, false) }

// OpenTreeReader opens a streaming reader over the concatenation, in
// sorted path order, of every file at or under prefix — the streaming
// counterpart of ReadTree, with the same not-found semantics.
func (fs *FS) OpenTreeReader(prefix string) (*Reader, error) { return fs.open(prefix, true) }

// OpenOutput opens a reader over every file at or under dir, as
// OpenTreeReader does, but charges the read counter nothing: it is the
// trusted tier reading back what a job stored (its output digests, a
// checkpoint's copy), not a task's read. A dir holding nothing reads as
// empty.
func (fs *FS) OpenOutput(dir string) *Reader {
	r := &Reader{fs: fs}
	_, _ = fs.snapshot(r, clean(dir), true) // charged nothing; with nothing there, r stays empty
	return r
}

// open is OpenReader, or with tree OpenTreeReader.
func (fs *FS) open(path string, tree bool) (*Reader, error) {
	r := &Reader{fs: fs}
	n, err := fs.snapshot(r, clean(path), tree)
	if err != nil {
		return nil, err
	}
	fs.bytesRead.Add(n)
	return r, nil
}

// snapshot adds to the empty r the segments of the file at path, or with
// tree of every file at or under it in sorted path order, and returns
// their logical bytes, for the caller to charge to the read counter. It
// counts the segments under the lock first, so r's array is allocated
// once. A file's blocks and its tail are never written once installed: a
// later install adds blocks after them, sealing a tail into a new one, and
// leaves those the snapshot holds as they were.
func (fs *FS) snapshot(r *Reader, path string, tree bool) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f := fs.files[path]
	var under []string
	if tree {
		_, lo, hi := fs.pathRanges(path)
		under = fs.paths[lo:hi]
	}
	if f == nil && len(under) == 0 {
		return 0, &ErrNotFound{Path: path}
	}
	n := 0
	if f != nil {
		n = f.segments()
	}
	for _, p := range under {
		n += fs.files[p].segments()
	}
	r.segs = make([]rseg, 0, n)
	var bytes int64
	if f != nil {
		r.add(f.blocks, f.tail)
		bytes = f.bytes
	}
	for _, p := range under {
		g := fs.files[p]
		r.add(g.blocks, g.tail)
		bytes += g.bytes
	}
	return bytes, nil
}

// segments is how many segments a Reader over f holds: one per sealed
// block, and one for a tail.
func (f *file) segments() int { return len(f.blocks) + min(f.tail.len(), 1) }

// readAll decodes every record of r straight into one slice of their
// count. A sealed block that cannot be read back fails it with a
// *BlockError.
func (r *Reader) readAll() ([]string, error) {
	return r.appendRange(make([]string, 0, r.total), 0, r.total)
}

// appendRange appends the records in [start, end), a range within
// [0, total], to dst, decoding from each block the range overlaps only
// the records inside it. A sealed block that cannot be read back fails
// it with a *BlockError.
func (r *Reader) appendRange(dst []string, start, end int) ([]string, error) {
	var shape blockShape
	for i := r.segAt(start); i < len(r.segs) && r.segs[i].start < end; i++ {
		seg := r.segs[i]
		a, b := max(start-seg.start, 0), min(end-seg.start, seg.n)
		if seg.blk == nil {
			lines := seg.tail.slice(a, b)
			dst = lines.appendStrings(dst)
			continue
		}
		var err error
		if dst, err = r.fs.loadBlock(dst, &shape, seg.blk, a, b); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// add appends sealed blocks, then the lines of a tail, as segments.
func (r *Reader) add(blocks []*block, tail lineSet[string]) {
	for _, b := range blocks {
		r.segs = append(r.segs, rseg{blk: b, start: r.total, n: b.records})
		r.total += b.records
		r.most = max(r.most, b.records)
	}
	if n := tail.len(); n > 0 {
		r.segs = append(r.segs, rseg{tail: tail, start: r.total, n: n})
		r.total += n
	}
}

// NumRecords returns the total record count snapshotted at open.
func (r *Reader) NumRecords() int { return r.total }

// segAt returns the index of the segment holding record start, which
// must be in [0, total).
func (r *Reader) segAt(start int) int {
	lo, hi := 0, len(r.segs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.segs[mid].start <= start {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// ReadRange returns the records in [start, end), decoding from each
// block the range overlaps only the records inside it. It is stateless
// and safe to call concurrently from parallel task bodies. Out-of-range
// bounds are clamped. A block that cannot be read back panics with its
// *BlockError.
func (r *Reader) ReadRange(start, end int) []string {
	if start < 0 {
		start = 0
	}
	if end > r.total {
		end = r.total
	}
	if start >= end {
		return nil
	}
	out, err := r.appendRange(make([]string, 0, end-start), start, end)
	if err != nil {
		panic(err)
	}
	return out
}

// Lines yields every record's line in order (range over r.Lines), decoding
// one block at a time. A block that cannot be read back panics with its
// *BlockError, as in ReadRange.
func (r *Reader) Lines(yield func(string) bool) {
	var block []string
	var shape blockShape
	for _, seg := range r.segs {
		lines := seg.tail
		if seg.blk != nil {
			var err error
			if block, err = r.fs.loadBlock(block[:0], &shape, seg.blk, 0, seg.n); err != nil {
				panic(err)
			}
			lines = lineSet[string]{lines: block}
		}
		for i := range lines.len() {
			if !yield(lines.line(i)) {
				return
			}
		}
	}
}

// LinesSum is digest.OfLines of the records' lines, streamed: each line and
// a newline go into the hash's buffer as Lines yields them, and none is
// kept.
func (r *Reader) LinesSum() digest.Sum {
	hs := digest.NewHasher(nil)
	for l := range r.Lines {
		hs.WriteString(l)
		hs.WriteByte('\n')
	}
	return hs.Sum()
}

// ReadColumns reads records from start on into b, up to end or the end of
// the segment holding start (a sealed block, or the lines held for a part
// file's unsealed tail), whichever comes first, and returns the
// record it stopped before; need lists the columns a sealed block's
// records carry (nil: all). Where b's arrays grow, they grow for as many
// records as the call asks for or b reserved (Batch.Reserve), whichever is
// more, or as the largest block holds if fewer. b belongs to the caller;
// the Reader stays safe for concurrent use. A block that cannot be read
// back panics with its *BlockError, as in ReadRange.
func (r *Reader) ReadColumns(b *Batch, start, end int, need []bool) (next int) {
	b.reset()
	start = max(start, 0)
	if start >= min(end, r.total) {
		return end
	}
	seg := r.segs[r.segAt(start)]
	next = min(end, seg.start+seg.n)
	if seg.blk == nil {
		b.holdLines(seg.tail.slice(start-seg.start, next-seg.start))
		return next
	}
	data, err := r.fs.blockData(seg.blk)
	if err != nil {
		panic(err)
	}
	if err := b.decode(data, start-seg.start, next-seg.start, min(max(end-start, b.room), r.most), need); err != nil {
		panic(seg.blk.failed(err))
	}
	return next
}
