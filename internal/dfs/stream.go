package dfs

// Streaming access to block-backed files. A Reader exposes a file (or a
// sorted part-file tree) as an indexed sequence of records without
// materializing the whole file: ReadRange returns record lines, and
// ReadColumns serves one segment's records through a Batch (a sealed
// block's as the column spans it stores, held lines where they are);
// either decodes only the blocks a range overlaps. Appends need no mirror
// image: FS.Append already seals and spills batch by batch. A Reader never
// hands out encoded bytes, so everything the FS guarantees about hooks,
// counters, and spilling holds for streamed access too.

// rseg is one contiguous run of records inside a Reader: either a
// sealed block (decoded on demand) or a snapshot of a file's unsealed
// tail (held directly).
type rseg struct {
	blk   *block
	lines []string
	n     int
}

// Reader is a positioned, random-access view over the records of a file
// or file tree, snapshotted at open time (appends after open are not
// visible, matching the copy semantics of ReadLines). The zero value is
// an empty reader, and every method is safe for concurrent use.
type Reader struct {
	fs     *FS
	segs   []rseg
	starts []int // segs[i] covers records [starts[i], starts[i]+segs[i].n)
	total  int

	logicalBytes int64 // accumulated by addFile, charged once at open
}

// OpenReader opens a streaming reader over the file at path. The file's
// full logical bytes are charged to the read counter at open, exactly
// as a ReadLines call would. When a ReadHook is set the reader
// materializes through ReadLines instead, so the hook observes the one
// whole-file line stream it expects.
func (fs *FS) OpenReader(path string) (*Reader, error) {
	path = clean(path)
	if fs.ReadHook != nil {
		lines, err := fs.ReadLines(path)
		if err != nil {
			return nil, err
		}
		return readerOver(lines), nil
	}
	fs.mu.RLock()
	f, ok := fs.files[path]
	if !ok {
		fs.mu.RUnlock()
		return nil, &ErrNotFound{Path: path}
	}
	r := &Reader{fs: fs}
	r.addFile(f)
	fs.mu.RUnlock()
	fs.bytesRead.Add(r.logicalBytes)
	return r, nil
}

// OpenTreeReader opens a streaming reader over the concatenation, in
// sorted path order, of every file at or under prefix — the streaming
// counterpart of ReadTree, with the same not-found and hook semantics.
func (fs *FS) OpenTreeReader(prefix string) (*Reader, error) {
	prefix = clean(prefix)
	if fs.ReadHook != nil {
		lines, err := fs.ReadTree(prefix)
		if err != nil {
			return nil, err
		}
		return readerOver(lines), nil
	}
	fs.mu.RLock()
	exact, lo, hi := fs.pathRanges(prefix)
	if !exact && lo >= hi {
		fs.mu.RUnlock()
		return nil, &ErrNotFound{Path: prefix}
	}
	r := &Reader{fs: fs}
	if exact {
		r.addFile(fs.files[prefix])
	}
	for _, p := range fs.paths[lo:hi] {
		r.addFile(fs.files[p])
	}
	fs.mu.RUnlock()
	fs.bytesRead.Add(r.logicalBytes)
	return r, nil
}

// readerOver wraps an already-materialized line slice (the hook path).
func readerOver(lines []string) *Reader {
	r := &Reader{}
	if len(lines) > 0 {
		r.segs = []rseg{{lines: lines, n: len(lines)}}
		r.starts = []int{0}
		r.total = len(lines)
	}
	return r
}

// addFile appends a file's segments to the reader; caller holds fs.mu.
func (r *Reader) addFile(f *file) {
	for _, b := range f.blocks {
		r.starts = append(r.starts, r.total)
		r.segs = append(r.segs, rseg{blk: b, n: b.records})
		r.total += b.records
	}
	if len(f.pending) > 0 {
		tail := f.pending[:len(f.pending):len(f.pending)]
		r.starts = append(r.starts, r.total)
		r.segs = append(r.segs, rseg{lines: tail, n: len(tail)})
		r.total += len(tail)
	}
	r.logicalBytes += f.bytes
}

// NumRecords returns the total record count snapshotted at open.
func (r *Reader) NumRecords() int { return r.total }

// segAt returns the index of the segment holding record start, which
// must be in [0, total).
func (r *Reader) segAt(start int) int {
	lo, hi := 0, len(r.segs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.starts[mid] <= start {
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
	out := make([]string, 0, end-start)
	for i := r.segAt(start); i < len(r.segs) && r.starts[i] < end; i++ {
		seg := r.segs[i]
		a, b := 0, seg.n
		if s := start - r.starts[i]; s > a {
			a = s
		}
		if e := end - r.starts[i]; e < b {
			b = e
		}
		if seg.blk != nil {
			var err error
			if out, err = r.fs.loadBlock(out, seg.blk, a, b); err != nil {
				panic(err)
			}
		} else {
			out = append(out, seg.lines[a:b]...)
		}
	}
	return out
}

// ReadColumns reads records from start on into b, up to end or the end of
// the segment holding start (a sealed block, or the lines held for an
// unsealed tail or a ReadHook), whichever comes first, and returns the
// record it stopped before; need lists the columns a sealed block's
// records carry (nil: all). b belongs to the caller; the Reader stays safe
// for concurrent use. A block that cannot be read back panics with its
// *BlockError, as in ReadRange.
func (r *Reader) ReadColumns(b *Batch, start, end int, need []bool) (next int) {
	b.reset()
	start = max(start, 0)
	if start >= min(end, r.total) {
		return end
	}
	i := r.segAt(start)
	seg := r.segs[i]
	next = min(end, r.starts[i]+seg.n)
	if seg.blk == nil {
		b.holdLines(seg.lines[start-r.starts[i] : next-r.starts[i]])
		return next
	}
	data, err := r.fs.blockData(seg.blk)
	if err != nil {
		panic(err)
	}
	if err := b.decode(data, start-r.starts[i], next-r.starts[i], need); err != nil {
		panic(seg.blk.failed(err))
	}
	return next
}
