// Package dfs provides the trusted storage layer ClusterBFT assumes
// (paper §2.3): an append-only, HDFS-like file system holding text
// records (lines). Directories are implicit path prefixes, and MapReduce
// outputs follow the Hadoop convention of part files under an output
// directory. The file system counts bytes read and written so the
// Table 3 "HDFS write" metric can be reported.
//
// Since PR 7 the at-rest representation is block-structured rather than
// a []string per file: records accumulate in a small unsealed tail and
// are sealed into columnar, length-prefixed blocks (~Options.BlockSize
// encoded bytes each, see block.go), optionally flate-compressed, and —
// under a resident-memory budget — spilled to a temp file on disk. All
// of this is invisible above the API line: reads reconstruct the exact
// record lines that were appended, verification digests are taken over
// canonical record bytes (never block bytes), and the line-level
// Read/Write hooks keep firing on exactly the streams they always saw.
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
	// under. <= 0 disables spilling entirely. The budget governs
	// sealed blocks only: each file's unsealed tail additionally holds
	// up to ~BlockSize of pending records.
	MemBudget int64
	// SpillDir is where the spill file is created; "" uses the system
	// temp directory. The file is removed by Close.
	SpillDir string
	// Compress enables per-block flate compression of sealed blocks.
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
	// WriteHook, when set, transforms the lines of every Append and
	// Install before they are stored; ReadHook transforms the result of
	// each logical read (once per ReadLines or ReadTree call, applied to
	// the copy handed to the caller — stored data is never touched). Both
	// are nil-safe and zero-cost when unset; they exist for fault
	// injection, which uses them to corrupt or truncate record streams at
	// the storage boundary. Append and Install are the write boundary and
	// ReadLines/ReadTree (and reader opens, which materialize through
	// them when a hook is set) are the block-decode boundary, so hooks
	// observe exactly the line streams they saw on the legacy []string
	// store. Set hooks before using the FS concurrently; a hook must be
	// a pure function and must not call back into the FS.
	ReadHook  func(path string, lines []string) []string
	WriteHook func(path string, lines []string) []string

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

// file is one stored file: sealed blocks plus the unsealed tail.
type file struct {
	blocks       []*block
	pending      []string
	pendingBytes int
	lines        int
	bytes        int64 // logical size: record bytes plus one newline each
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
	freed   bool // owning file deleted; skip when evicting
}

// New returns an empty file system with default options (everything
// resident, uncompressed).
func New() *FS { return NewWith(Options{}) }

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
// block references must not be used afterwards.
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
	return err
}

// ErrNotFound is returned when a path does not exist.
type ErrNotFound struct{ Path string }

func (e *ErrNotFound) Error() string { return fmt.Sprintf("dfs: %s: no such file", e.Path) }

// ErrExists is returned by Create when the path already exists.
type ErrExists struct{ Path string }

func (e *ErrExists) Error() string { return fmt.Sprintf("dfs: %s: file exists", e.Path) }

// BlockError is how a read fails when a sealed block cannot be read back:
// the spill file failed, or the bytes are not the block that was sealed.
// ReadLines and ReadTree return it; a Reader's reads, which have no error
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

// Create makes an empty file at path, failing if it already exists.
func (fs *FS) Create(path string) error {
	path = clean(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; ok {
		return &ErrExists{Path: path}
	}
	fs.files[path] = &file{}
	fs.insertPath(path)
	return nil
}

// Append adds lines to the file at path, creating it if needed. The file
// system is append-only in keeping with cloud-store semantics (§1): there
// is no way to overwrite existing records in place. Appended records land
// in the file's unsealed tail; once the tail reaches the target block
// size it is sealed into encoded (optionally compressed) blocks, which
// spill to disk when the resident-memory budget is exceeded.
func (fs *FS) Append(path string, lines ...string) {
	path = clean(path)
	if fs.WriteHook != nil {
		lines = fs.WriteHook(path, lines)
	}
	fs.install(path, fs.Seal(lines))
}

// Sealed is a batch of lines as Seal encoded them, for Install to add to a
// file: the blocks, the lines short of another block, and their size.
type Sealed struct {
	blocks []*block // path and idx are the installing file's to set
	tail   []string // in an array of its own
	bytes  int64    // the lines' logical bytes, a newline each
}

// Bytes returns the logical bytes of the sealed lines (records plus one
// newline each): what installing them adds to BytesWritten.
func (s *Sealed) Bytes() int64 { return s.bytes }

// Tail returns the lines past the last block, in the array Seal copied
// them into, clipped: the store only ever appends past their end.
func (s *Sealed) Tail() []string { return slices.Clip(s.tail) }

// Seal encodes lines into the blocks a file holding only them would have:
// the shortest prefix reaching the block size, again and again, and what is
// left short of it as the tail. It reads the options and nothing else of
// the FS, so task bodies seal their output concurrently, off the simulation
// goroutine, and the commit installs it.
func (fs *FS) Seal(lines []string) Sealed {
	var s Sealed
	for _, l := range lines {
		s.bytes += int64(len(l)) + 1
	}
	size := fs.opts.BlockSize
	// A block takes at least size bytes and at least a line: the most blocks
	// there can be, one array of them and one of pointers to them.
	room := min(s.bytes/int64(size), int64(len(lines)))
	var blocks []block
	if room > 0 {
		blocks, s.blocks = make([]block, room), make([]*block, 0, room)
	}
	sealed, left := 0, s.bytes
	for left >= int64(size) {
		take, taken := 0, 0
		for _, l := range lines[sealed:] {
			taken += len(l) + 1
			take++
			if taken >= size {
				break
			}
		}
		data, rawLen := encodeBlockStats(lines[sealed:sealed+take], fs.opts.Compress)
		b := &blocks[len(s.blocks)]
		*b = block{records: take, logical: int64(taken), raw: rawLen, data: data}
		s.blocks = append(s.blocks, b)
		sealed += take
		left -= int64(taken)
	}
	if sealed < len(lines) {
		s.tail = append([]string(nil), lines[sealed:]...)
	}
	return s
}

// Install adds to the file at path, creating it if needed, the lines s was
// sealed from. lines are those lines, and only a WriteHook reads them: it
// is applied to them here, as Append applies it, and what it changes is
// sealed again.
func (fs *FS) Install(path string, s Sealed, lines []string) {
	path = clean(path)
	if fs.WriteHook != nil {
		if hooked := fs.WriteHook(path, lines); !slices.Equal(hooked, lines) {
			s = fs.Seal(hooked)
		}
	}
	fs.install(path, s)
}

// install is the one place a file grows: under mu it adopts s's blocks,
// accounts for them, queues them for eviction and enforces the resident
// budget. s was sealed as if the file were empty; behind a tail its lines
// join the tail instead, sealed with it once it reaches a block.
func (fs *FS) install(path string, s Sealed) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		f = &file{}
		fs.files[path] = f
		fs.insertPath(path)
	}
	fs.bytesWritten.Add(s.bytes)
	if len(f.pending) > 0 {
		// Past its length the tail's array is no one's: whoever else holds
		// it clipped it (addFile, readRaw, Sealed.Tail).
		lines := f.pending
		for _, b := range s.blocks {
			lines, _ = decodeBlockRange(lines, b.data, 0, b.records) // bytes Seal just wrote
		}
		lines = append(lines, s.tail...)
		f.lines -= len(f.pending)
		f.bytes -= int64(f.pendingBytes)
		if n := int64(f.pendingBytes) + s.bytes; n < int64(fs.opts.BlockSize) {
			s = Sealed{tail: lines, bytes: n}
		} else {
			s = fs.Seal(lines)
		}
	}
	f.lines += len(s.tail)
	f.bytes += s.bytes
	tail := s.bytes
	for i, b := range s.blocks {
		b.path, b.idx = path, len(f.blocks)+i
		f.lines += b.records
		tail -= b.logical
		fs.rawPayload += int64(b.raw)
		fs.storedPayload += int64(len(b.data))
		fs.residentBlocks++
		fs.residentBytes += int64(len(b.data))
		fs.residentQ = append(fs.residentQ, b)
	}
	if len(f.blocks) == 0 {
		f.blocks = s.blocks
	} else {
		f.blocks = append(f.blocks, s.blocks...)
	}
	f.pending, f.pendingBytes = s.tail, int(tail)
	fs.enforceBudget()
	if fs.residentBytes > fs.maxResident {
		fs.maxResident = fs.residentBytes
	}
}

// enforceBudget spills the oldest resident blocks until resident bytes
// fit the budget; caller holds mu. On spill-file errors spilling is
// disabled (sticky) and blocks stay resident.
func (fs *FS) enforceBudget() {
	if fs.opts.MemBudget <= 0 || fs.spillErr != nil {
		return
	}
	for fs.residentBytes > fs.opts.MemBudget && len(fs.residentQ) > 0 {
		b := fs.residentQ[0]
		fs.residentQ = fs.residentQ[1:]
		if b.data == nil {
			continue
		}
		if b.freed {
			// Owning file deleted: drop without paying a spill write.
			fs.residentBlocks--
			fs.residentBytes -= int64(len(b.data))
			b.data = nil
			continue
		}
		if err := fs.spillBlock(b); err != nil {
			fs.spillErr = err
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
	if sf == nil {
		return nil, b.failed(errors.New("spilled, and the spill file is closed"))
	}
	buf := make([]byte, size)
	if _, err := sf.ReadAt(buf, off); err != nil {
		return nil, b.failed(fmt.Errorf("spill read: %w", err))
	}
	return buf, nil
}

// loadBlock appends records [lo, hi) of b to dst (hi is clamped to the
// block's record count). A failure is a *BlockError.
func (fs *FS) loadBlock(dst []string, b *block, lo, hi int) ([]string, error) {
	data, err := fs.blockData(b)
	if err != nil {
		return dst, err
	}
	if dst, err = decodeBlockRange(dst, data, lo, hi); err != nil {
		return dst, b.failed(err)
	}
	return dst, nil
}

// ---- reads ------------------------------------------------------------

// ReadLines returns a copy of the lines of the file at path. A sealed
// block that cannot be read back fails it with a *BlockError.
func (fs *FS) ReadLines(path string) ([]string, error) {
	path = clean(path)
	out, err := fs.readRaw(path)
	if err == nil && fs.ReadHook != nil {
		out = fs.ReadHook(path, out)
	}
	return out, err
}

// readRaw is ReadLines without the read hook; ReadTree builds on it so a
// logical tree read passes through the hook exactly once.
func (fs *FS) readRaw(path string) ([]string, error) {
	fs.mu.RLock()
	f, ok := fs.files[path]
	if !ok {
		fs.mu.RUnlock()
		return nil, &ErrNotFound{Path: path}
	}
	blocks := f.blocks // sealed prefix is append-only; snapshot is stable
	tail := f.pending[:len(f.pending):len(f.pending)]
	n := f.bytes
	total := f.lines
	fs.mu.RUnlock()

	out := make([]string, 0, total)
	for _, b := range blocks {
		var err error
		if out, err = fs.loadBlock(out, b, 0, b.records); err != nil {
			return nil, err
		}
	}
	out = append(out, tail...)
	fs.bytesRead.Add(n)
	return out, nil
}

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

// freeBlocks releases the resident memory of f's sealed blocks; caller
// holds mu. Blocks still queued for eviction are marked freed and
// skipped there.
func (fs *FS) freeBlocks(f *file) {
	for _, b := range f.blocks {
		if b.freed {
			continue
		}
		b.freed = true
		if b.data != nil {
			fs.residentBlocks--
			fs.residentBytes -= int64(len(b.data))
			b.data = nil
		}
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

// LineCount returns the number of records in the file at path.
func (fs *FS) LineCount(path string) (int, error) {
	path = clean(path)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, &ErrNotFound{Path: path}
	}
	return f.lines, nil
}

// ReadTree reads and concatenates, in sorted path order, every file at or
// under prefix. This is how MapReduce consumers read a part-file output
// directory.
func (fs *FS) ReadTree(prefix string) ([]string, error) {
	paths := fs.List(prefix)
	if len(paths) == 0 {
		return nil, &ErrNotFound{Path: prefix}
	}
	var out []string
	for _, p := range paths {
		lines, err := fs.readRaw(p)
		if err != nil {
			return nil, err
		}
		out = append(out, lines...)
	}
	if fs.ReadHook != nil {
		out = fs.ReadHook(clean(prefix), out)
	}
	return out, nil
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
