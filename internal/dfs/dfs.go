// Package dfs provides the trusted storage layer ClusterBFT assumes
// (paper §2.3): an append-only, HDFS-like file system holding text
// records (lines). Directories are implicit path prefixes, and MapReduce
// outputs follow the Hadoop convention of part files under an output
// directory. The file system counts bytes read and written so the
// Table 3 "HDFS write" metric can be reported.
//
// The at-rest representation is block-structured rather than a []string
// per file: records are sealed into columnar, length-prefixed blocks
// (~Options.BlockSize encoded bytes each, the last of a file possibly
// short, see block.go), optionally compressed (dictionary-coded or
// deflated, whichever the block's content suits), and — under a
// resident-memory budget — spilled to a temp file on disk. Only a task's
// part file keeps what is short of a block unsealed, as a tail. A sealed
// block is written once: an append adds blocks after it and never opens it
// again. All of this is invisible above the API line: reads reconstruct
// the exact record lines that were appended, verification digests are
// taken over canonical record bytes (never block bytes).
package dfs

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"clusterbft/internal/obs"
)

// Options configures the block data plane of an FS. The zero value
// matches the historical behaviour as closely as possible: default
// block size, no compression, unlimited resident memory (nothing ever
// spills, no temp files are created).
type Options struct {
	// BlockSize is the target encoded size of one sealed block in
	// bytes; <= 0 selects DefaultBlockSize (256 KiB). Records never
	// split across blocks, so a single record larger than BlockSize
	// makes an oversized block.
	BlockSize int
	// MemBudget caps the resident encoded bytes of sealed blocks;
	// when an append pushes the total past the budget, the oldest
	// resident blocks spill to the spill file until the total is back
	// under. A spilled block is read back only by a read, never by an
	// append. <= 0 disables spilling entirely. The budget governs
	// sealed blocks only: a part file's unsealed tail additionally holds
	// up to ~BlockSize of records.
	MemBudget int64
	// SpillDir is where the spill file is created; "" uses the system
	// temp directory. The file is removed by Close.
	SpillDir string
	// Compress enables per-block compression of sealed blocks: a
	// dictionary code where every column of the block holds at most 256
	// distinct values, flate where not.
	Compress bool
}

// ParseBytes parses a human byte size: a non-negative integer with an
// optional k/m/g (KiB/MiB/GiB) suffix, case-insensitive.
func ParseBytes(s string) (int64, error) {
	digits := strings.TrimSpace(s)
	mult := int64(1)
	if len(digits) > 0 {
		switch digits[len(digits)-1] {
		case 'k', 'K':
			mult, digits = 1<<10, digits[:len(digits)-1]
		case 'm', 'M':
			mult, digits = 1<<20, digits[:len(digits)-1]
		case 'g', 'G':
			mult, digits = 1<<30, digits[:len(digits)-1]
		}
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("dfs: bad byte size %q", s)
	}
	return n * mult, nil
}

// FS is a concurrency-safe block-structured file system. The zero value
// is not usable; construct with New or NewWith.
type FS struct {
	opts Options

	mu    sync.RWMutex
	files map[string]*file
	paths []string // incrementally-maintained sorted path index

	// Spill machinery, guarded by mu. The spill file is append-only and
	// never reclaimed: spilled block bytes stay valid at their offsets
	// even after the owning file is deleted, so open readers keep
	// working (HDFS unlink semantics).
	spillF   *os.File
	spillOff int64
	spillErr error

	// Block accounting, guarded by mu.
	residentBlocks int64 // sealed blocks currently held in memory
	residentBytes  int64 // their encoded bytes
	maxResident    int64 // high-water mark of residentBytes (post-spill)
	spilledBlocks  int64
	spilledBytes   int64
	rawPayload     int64 // uncompressed payload bytes of sealed blocks
	storedPayload  int64 // stored payload bytes (post-compression)
	residentQ      []*block

	bytesWritten atomic.Int64
	bytesRead    atomic.Int64
}

// file is one stored file: sealed blocks, the last of which may be short,
// and, in a task's part file, the unsealed tail.
type file struct {
	blocks []*block
	tail   lineSet[string] // one string, cut at its ends
	bytes  int64           // logical size: record bytes plus one newline each
}

// block is one sealed batch of records, the idx-th of the file at path.
// data is nil once spilled, in which case (off, size) locate the encoded
// bytes in the spill file. Encoded bytes are immutable after sealing;
// readers may hold the data slice across a spill transition safely.
type block struct {
	path    string
	idx     int
	records int
	logical int64
	raw     int // payload bytes before compression
	data    []byte
	off     int64
	size    int
}

// NewWith returns an empty file system with the given block data-plane
// options. The spill file is created lazily on first spill; if creating
// or writing it fails, spilling stops and blocks stay resident (the
// sticky error is reported by SpillErr and Close).
func NewWith(opts Options) *FS {
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	return &FS{opts: opts, files: make(map[string]*file)}
}

// Close releases the spill file, if any. Open readers holding spilled
// block references must not be used afterwards. The store fails closed
// after it: a block spilled before reads as a *BlockError that says the
// store is closed, and the sticky spill error names the closed store, so
// nothing spills again and later blocks stay resident.
func (fs *FS) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	err := fs.spillErr
	if fs.spillF != nil {
		name := fs.spillF.Name()
		if cerr := fs.spillF.Close(); err == nil {
			err = cerr
		}
		if rerr := os.Remove(name); err == nil {
			err = rerr
		}
		fs.spillF = nil
	}
	if fs.spillErr == nil {
		fs.spillErr = fmt.Errorf("dfs: spill: %w", errClosed)
	}
	fs.residentQ = nil
	return err
}

// errClosed is what a spill, or the read of a block spilled, fails with
// after Close.
var errClosed = errors.New("the store is closed")

// ErrNotFound is returned when a path does not exist.
type ErrNotFound struct{ Path string }

func (e *ErrNotFound) Error() string { return fmt.Sprintf("dfs: %s: no such file", e.Path) }

// BlockError is how a read fails when a sealed block cannot be read back:
// the spill file failed, or the bytes are not the block that was sealed.
// ReadTree returns it; a Reader's reads, which have no error
// to return, panic with it. The trusted store itself broke, which the fault
// model assumes away and no node is to blame for: mapred.Engine.Run ends on
// it.
type BlockError struct {
	Path  string // the file
	Block int    // which of its sealed blocks
	Err   error
}

func (e *BlockError) Error() string {
	return fmt.Sprintf("dfs: %s: block %d: %v", e.Path, e.Block, e.Err)
}

func (e *BlockError) Unwrap() error { return e.Err }

func (b *block) failed(err error) *BlockError {
	return &BlockError{Path: b.path, Block: b.idx, Err: err}
}

func clean(path string) string {
	return strings.TrimPrefix(strings.TrimSuffix(path, "/"), "/")
}

// ---- path index -------------------------------------------------------

// insertPath adds path to the sorted index; caller holds mu.
func (fs *FS) insertPath(path string) {
	i := sort.SearchStrings(fs.paths, path)
	if i < len(fs.paths) && fs.paths[i] == path {
		return
	}
	fs.paths = append(fs.paths, "")
	copy(fs.paths[i+1:], fs.paths[i:])
	fs.paths[i] = path
}

// removePathRange splices [lo, hi) out of the index; caller holds mu.
func (fs *FS) removePathRange(lo, hi int) {
	if lo >= hi {
		return
	}
	fs.paths = append(fs.paths[:lo], fs.paths[hi:]...)
}

// pathRanges returns the index ranges matching prefix: the exact path
// (if present) and the half-open range of everything under prefix+"/".
// Matches within each range are contiguous because the index is sorted;
// the two ranges are returned separately since unrelated paths (e.g.
// "a!b" between "a" and "a/x") may sit between them. An empty prefix
// matches everything. Caller holds mu.
func (fs *FS) pathRanges(prefix string) (exact bool, lo, hi int) {
	if prefix == "" {
		return false, 0, len(fs.paths)
	}
	i := sort.SearchStrings(fs.paths, prefix)
	exact = i < len(fs.paths) && fs.paths[i] == prefix
	sub := prefix + "/"
	lo = sort.SearchStrings(fs.paths, sub)
	// "/"+1 == "0": everything under prefix+"/" sorts before prefix+"0".
	hi = sort.SearchStrings(fs.paths, prefix+"0")
	return exact, lo, hi
}

// ---- writes -----------------------------------------------------------

// Append adds lines to the file at path, creating it if needed. The file
// system is append-only in keeping with cloud-store semantics (§1): there
// is no way to overwrite existing records in place. Every appended record
// is sealed into encoded (optionally compressed) blocks, the last one
// short of the block size where the lines end short of it, as HDFS keeps
// the last block of a file; blocks spill to disk when the resident-memory
// budget is exceeded. A second Append to a file adds its blocks after the
// first one's, short block and all: a block is never reopened, so lines
// appended one at a time cost a block each.
func (fs *FS) Append(path string, lines ...string) { fs.Install(path, fs.Seal(lines)) }

// Sealed is a batch of lines as Seal or SealBuffer encoded them, which
// Install adds to a file as they are: blocks, tail and their size.
type Sealed struct {
	blocks []*block        // path and idx are the installing file's to set
	tail   lineSet[string] // one string, cut at its ends
	bytes  int64           // the lines' logical bytes, a newline each
}

// Bytes returns the logical bytes of the sealed lines (records plus one
// newline each): what installing them adds to BytesWritten.
func (s *Sealed) Bytes() int64 { return s.bytes }

// Seal encodes lines into the blocks a file holding only them would have:
// the shortest prefix reaching the block size, again and again, and what is
// left short of it as one short block. It reads the options and nothing
// else of the FS, so it may run concurrently with anything.
func (fs *FS) Seal(lines []string) Sealed { return seal(fs.opts, lineSet[string]{lines: lines}, false) }

// SealBuffer is Seal of the lines buf holds back to back, line i ending at
// ends[i] (and beginning where line i-1 ends, line 0 at 0), but for what is
// short of a block: that stays unsealed, as a tail. It is how a task body
// seals its part file, off the simulation goroutine, for the commit to
// install; a part is read once, by the next job, and a tail costs neither
// an encode nor a spill. Nothing it returns points into buf: blocks are
// encoded copies and the tail is one string and its line ends, copied out,
// so the caller may write over buf as soon as it returns.
func (fs *FS) SealBuffer(buf []byte, ends []int32) Sealed {
	return seal(fs.opts, lineSet[[]byte]{buf: buf, ends: ends}, true)
}

func seal[T lineText](opts Options, lines lineSet[T], keepTail bool) Sealed {
	s := Sealed{bytes: lines.bytes()}
	size, n := opts.BlockSize, lines.len()
	// A full block takes at least size bytes and at least a line, and Seal
	// adds a short one: the most blocks there can be, one array of them and
	// one of pointers to them.
	room := s.bytes / int64(size)
	if !keepTail {
		room++
	}
	room = min(room, int64(n))
	var blocks []block
	if room > 0 {
		blocks, s.blocks = make([]block, room), make([]*block, 0, room)
	}
	sealed, left := 0, s.bytes
	for sealed < n && (left >= int64(size) || !keepTail) {
		take, taken := 0, 0
		for i := sealed; i < n; i++ {
			taken += len(lines.line(i)) + 1
			take++
			if taken >= size {
				break
			}
		}
		data, rawLen := encodeBlockStats(lines.slice(sealed, sealed+take), opts.Compress)
		b := &blocks[len(s.blocks)]
		*b = block{records: take, logical: int64(taken), raw: rawLen, data: data}
		s.blocks = append(s.blocks, b)
		sealed += take
		left -= int64(taken)
	}
	if sealed < n {
		tail := lines.slice(sealed, n)
		s.tail = tail.compact()
	}
	return s
}

// Install adds to the file at path, creating it if needed, the lines s was
// sealed from. It is the one place a file grows: under mu it adopts s's
// blocks as Seal or SealBuffer made them, after the file's own, accounts
// for them, queues them for eviction and enforces the resident budget. It
// never decodes, encodes again or reads back a block the file holds.
func (fs *FS) Install(path string, s Sealed) {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		f = &file{}
		fs.files[path] = f
		fs.insertPath(path)
	}
	fs.bytesWritten.Add(s.bytes)
	if s.bytes == 0 { // no lines: the file ends as it did
		return
	}
	blocks := s.blocks
	if f.tail.len() > 0 {
		// Only a part file has a tail, and no program installs into one
		// twice: its lines, short of a block, are sealed as Seal seals
		// them, one short block ahead of s's.
		blocks = append(seal(fs.opts, f.tail, false).blocks, blocks...)
	}
	f.bytes += s.bytes
	for i, b := range blocks {
		b.path, b.idx = path, len(f.blocks)+i
		fs.rawPayload += int64(b.raw)
		fs.storedPayload += int64(len(b.data))
		fs.residentBlocks++
		fs.residentBytes += int64(len(b.data))
		if fs.evicts() {
			fs.residentQ = append(fs.residentQ, b)
		}
	}
	if len(f.blocks) == 0 {
		f.blocks = blocks
	} else {
		f.blocks = append(f.blocks, blocks...)
	}
	f.tail = s.tail
	fs.enforceBudget()
	if fs.residentBytes > fs.maxResident {
		fs.maxResident = fs.residentBytes
	}
}

// evicts reports whether the store spills blocks to hold a budget: only
// then does it queue resident blocks, oldest first, in residentQ, which
// holds every resident block and no other. Caller holds mu.
func (fs *FS) evicts() bool { return fs.opts.MemBudget > 0 && fs.spillErr == nil }

// enforceBudget spills the oldest resident blocks until resident bytes
// fit the budget; caller holds mu. On spill-file errors spilling is
// disabled (sticky), the queue dropped, and blocks stay resident.
func (fs *FS) enforceBudget() {
	if !fs.evicts() {
		return
	}
	for fs.residentBytes > fs.opts.MemBudget && len(fs.residentQ) > 0 {
		b := fs.residentQ[0]
		fs.residentQ = fs.residentQ[1:]
		if err := fs.spillBlock(b); err != nil {
			fs.spillErr, fs.residentQ = err, nil
			return
		}
	}
}

// spillBlock writes one resident block to the spill file; caller holds
// mu.
func (fs *FS) spillBlock(b *block) error {
	if fs.spillF == nil {
		dir := fs.opts.SpillDir
		if dir == "" {
			dir = os.TempDir()
		}
		f, err := os.CreateTemp(dir, "clusterbft-spill-*.blk")
		if err != nil {
			return err
		}
		fs.spillF = f
	}
	if _, err := fs.spillF.WriteAt(b.data, fs.spillOff); err != nil {
		return err
	}
	b.off = fs.spillOff
	b.size = len(b.data)
	fs.spillOff += int64(b.size)
	fs.residentBlocks--
	fs.residentBytes -= int64(b.size)
	fs.spilledBlocks++
	fs.spilledBytes += int64(b.size)
	b.data = nil
	return nil
}

// blockData returns b's encoded bytes, reading a spilled block back
// with a positioned read. Safe for concurrent use: the encoded bytes are
// immutable once sealed. A failure is a *BlockError.
func (fs *FS) blockData(b *block) ([]byte, error) {
	fs.mu.RLock()
	data := b.data
	off, size := b.off, b.size
	sf := fs.spillF
	fs.mu.RUnlock()
	if data != nil {
		return data, nil
	}
	data, err := readSpilled(sf, off, size)
	if err != nil {
		return nil, b.failed(err)
	}
	return data, nil
}

// readSpilled reads the size bytes a block spilled to off back from sf,
// which is nil only once Close has removed it.
func readSpilled(sf *os.File, off int64, size int) ([]byte, error) {
	if sf == nil {
		return nil, fmt.Errorf("spilled, and the spill file is closed: %w", errClosed)
	}
	buf := make([]byte, size)
	if _, err := sf.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("spill read: %w", err)
	}
	return buf, nil
}

// loadBlock appends records [lo, hi) of b to dst (hi is clamped to the
// block's record count), walking it into s. A failure is a *BlockError.
func (fs *FS) loadBlock(dst []string, s *blockShape, b *block, lo, hi int) ([]string, error) {
	data, err := fs.blockData(b)
	if err != nil {
		return dst, err
	}
	if dst, err = s.decodeLines(dst, data, lo, hi); err != nil {
		return dst, b.failed(err)
	}
	return dst, nil
}

// ---- reads ------------------------------------------------------------

// Exists reports whether the exact path exists as a file.
func (fs *FS) Exists(path string) bool {
	path = clean(path)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[path]
	return ok
}

// Delete removes the file at path (and only that file). Deleting a
// missing file is an error, matching HDFS -rm semantics. Spilled block
// bytes are not reclaimed from the spill file (it is append-only), but
// resident block memory is released.
func (fs *FS) Delete(path string) error {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return &ErrNotFound{Path: path}
	}
	fs.freeBlocks(f)
	delete(fs.files, path)
	if i := sort.SearchStrings(fs.paths, path); i < len(fs.paths) && fs.paths[i] == path {
		fs.removePathRange(i, i+1)
	}
	return nil
}

// freeBlocks releases the resident memory of f's sealed blocks and drops
// them from the eviction queue; caller holds mu.
func (fs *FS) freeBlocks(f *file) {
	freed := false
	for _, b := range f.blocks {
		if b.data != nil {
			fs.residentBlocks--
			fs.residentBytes -= int64(len(b.data))
			b.data = nil
			freed = true
		}
	}
	if freed && len(fs.residentQ) > 0 {
		fs.residentQ = slices.DeleteFunc(fs.residentQ, func(b *block) bool { return b.data == nil })
	}
}

// DeleteTree removes every file whose path equals prefix or sits under
// prefix + "/". It returns the number of files removed.
func (fs *FS) DeleteTree(prefix string) int {
	prefix = clean(prefix)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	exact, lo, hi := fs.pathRanges(prefix)
	n := hi - lo
	for _, p := range fs.paths[lo:hi] {
		fs.freeBlocks(fs.files[p])
		delete(fs.files, p)
	}
	fs.removePathRange(lo, hi)
	if exact {
		i := sort.SearchStrings(fs.paths, prefix)
		fs.freeBlocks(fs.files[prefix])
		delete(fs.files, prefix)
		fs.removePathRange(i, i+1)
		n++
	}
	return n
}

// List returns the sorted paths of all files at or under prefix. An
// empty prefix lists everything. The sorted path index makes this
// O(matched + log files) rather than a scan-and-sort of the whole map.
func (fs *FS) List(prefix string) []string {
	prefix = clean(prefix)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	exact, lo, hi := fs.pathRanges(prefix)
	if !exact && lo >= hi {
		return nil
	}
	out := make([]string, 0, hi-lo+1)
	if exact {
		out = append(out, prefix)
	}
	return append(out, fs.paths[lo:hi]...)
}

// Size returns the stored byte size of the file at path (records plus one
// newline each). This is the logical size — the Table 3 metrics it feeds
// are independent of block encoding and compression.
func (fs *FS) Size(path string) (int64, error) {
	path = clean(path)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, &ErrNotFound{Path: path}
	}
	return f.bytes, nil
}

// TreeSize returns the total byte size of all files at or under prefix.
func (fs *FS) TreeSize(prefix string) int64 {
	prefix = clean(prefix)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	exact, lo, hi := fs.pathRanges(prefix)
	var n int64
	if exact {
		n += fs.files[prefix].bytes
	}
	for _, p := range fs.paths[lo:hi] {
		n += fs.files[p].bytes
	}
	return n
}

// ReadTree reads and concatenates, in sorted path order, every file at or
// under prefix. This is how MapReduce consumers read a part-file output
// directory. The files are snapshot together, as a Reader's, and decoded
// into one slice. A sealed block that cannot be read back fails it with a
// *BlockError.
func (fs *FS) ReadTree(prefix string) ([]string, error) {
	r := Reader{fs: fs}
	n, err := fs.snapshot(&r, clean(prefix), true)
	if err != nil {
		return nil, err
	}
	fs.bytesRead.Add(n)
	return r.readAll()
}

// ---- counters ---------------------------------------------------------

// BytesWritten returns the cumulative logical bytes written since
// construction (or the last ResetCounters).
func (fs *FS) BytesWritten() int64 { return fs.bytesWritten.Load() }

// BytesRead returns the cumulative logical bytes read since construction
// (or the last ResetCounters).
func (fs *FS) BytesRead() int64 { return fs.bytesRead.Load() }

// ResetCounters zeroes the read/write byte counters without touching file
// contents; experiments call this between measured phases.
func (fs *FS) ResetCounters() {
	fs.bytesWritten.Store(0)
	fs.bytesRead.Store(0)
}

// ResidentBlocks counts sealed blocks currently held in memory.
func (fs *FS) ResidentBlocks() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.residentBlocks
}

// ResidentBytes sums the encoded bytes of resident sealed blocks.
func (fs *FS) ResidentBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.residentBytes
}

// MaxResidentBytes is the high-water mark of ResidentBytes, sampled
// after each install's budget enforcement — the number the out-of-core
// experiment checks against the configured budget.
func (fs *FS) MaxResidentBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.maxResident
}

// SpilledBlocks counts blocks written to the spill file.
func (fs *FS) SpilledBlocks() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.spilledBlocks
}

// SpillBytes sums the encoded bytes written to the spill file.
func (fs *FS) SpillBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.spilledBytes
}

// CompressedRatio reports stored/raw payload bytes over all sealed
// blocks, in percent (100 when nothing was compressed; 0 when nothing
// was sealed yet reads as 100 for stability).
func (fs *FS) CompressedRatio() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.rawPayload == 0 {
		return 100
	}
	return fs.storedPayload * 100 / fs.rawPayload
}

// SpillErr returns the sticky spill-file error, if any; after such an
// error blocks stay resident (the budget is best-effort, not a
// correctness property).
func (fs *FS) SpillErr() error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.spillErr
}

// Instrument registers live views of the I/O and block counters into reg.
func (fs *FS) Instrument(reg *obs.Registry) {
	if fs == nil || reg == nil {
		return
	}
	reg.Func("dfs.bytes_written", fs.BytesWritten)
	reg.Func("dfs.bytes_read", fs.BytesRead)
	reg.Func("dfs.files", func() int64 {
		fs.mu.RLock()
		defer fs.mu.RUnlock()
		return int64(len(fs.files))
	})
	reg.Func("dfs.blocks_resident", fs.ResidentBlocks)
	reg.Func("dfs.resident_bytes", fs.ResidentBytes)
	reg.Func("dfs.max_resident_bytes", fs.MaxResidentBytes)
	reg.Func("dfs.blocks_spilled", fs.SpilledBlocks)
	reg.Func("dfs.spill_bytes", fs.SpillBytes)
	reg.Func("dfs.compressed_ratio", fs.CompressedRatio)
}
