package dfs

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestBlockRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{""},
		{"a"},
		{"a\tb\tc", "d\te", "f"},
		{"", "", ""},
		{"x\t", "\ty", "\t", "\t\t\t"},
		{"esc\\t\\n\\\\", "tab\there", "multi\ncol? no, raw newline"},
		{strings.Repeat("wide\tvalue\t", 200) + "end"},
	}
	for i, lines := range cases {
		for _, compress := range []bool{false, true} {
			data := EncodeBlock(lines, compress)
			n, err := BlockRecords(data)
			if err != nil {
				t.Fatalf("case %d compress=%v: BlockRecords: %v", i, compress, err)
			}
			if n != len(lines) {
				t.Fatalf("case %d compress=%v: BlockRecords=%d want %d", i, compress, n, len(lines))
			}
			got, err := DecodeBlock(data)
			if err != nil {
				t.Fatalf("case %d compress=%v: DecodeBlock: %v", i, compress, err)
			}
			if len(got) != len(lines) {
				t.Fatalf("case %d compress=%v: got %d lines want %d", i, compress, len(got), len(lines))
			}
			for j := range lines {
				if got[j] != lines[j] {
					t.Fatalf("case %d compress=%v line %d: got %q want %q", i, compress, j, got[j], lines[j])
				}
			}
		}
	}
}

func TestBlockCompressionShrinksRepetitiveData(t *testing.T) {
	lines := make([]string, 500)
	for i := range lines {
		lines[i] = fmt.Sprintf("station-%03d\t%d\tsunny", i%7, 20+i%5)
	}
	raw := EncodeBlock(lines, false)
	comp := EncodeBlock(lines, true)
	if len(comp) >= len(raw) {
		t.Fatalf("compressed block (%d bytes) not smaller than raw (%d bytes)", len(comp), len(raw))
	}
	got, err := DecodeBlock(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Fatalf("line %d mismatch after compression round-trip", i)
		}
	}
}

// sealPayload puts a header with a valid checksum over stored, which is
// taken for the payload of n records: what a test needs to get a payload of
// its own making past openBlock.
func sealPayload(flags byte, n uint64, stored []byte) []byte {
	data := binary.AppendUvarint([]byte{blockVersion, flags}, n)
	data = binary.LittleEndian.AppendUint32(data, crc32.Update(crc32.Checksum(data, castagnoli), castagnoli, stored))
	return append(data, stored...)
}

// payloadParts is a block payload taken apart, for a test to put back
// together wrong. dir and foot default to what the encoder would write.
type payloadParts struct {
	maxCols, minCols uint64
	counts           []uint64 // written if non-nil, whatever the two above say
	regions          [][]byte
	dir              []uint64 // per column: twice the region's length, plus the flag
	lens             []uint64 // per record: line length
	foot             func(honest uint64) uint64
}

// values returns a column region holding vals.
func values(vals ...string) []byte {
	var region []byte
	for _, v := range vals {
		region = append(binary.AppendUvarint(region, uint64(len(v))), v...)
	}
	return region
}

func (pp payloadParts) bytes() []byte {
	p := binary.AppendUvarint(binary.AppendUvarint(nil, pp.maxCols), pp.minCols)
	for _, c := range pp.counts {
		p = binary.AppendUvarint(p, c)
	}
	for _, r := range pp.regions {
		p = append(p, r...)
	}
	foot := uint64(len(p))
	if pp.foot != nil {
		foot = pp.foot(foot)
	}
	dir := pp.dir
	if dir == nil {
		for _, r := range pp.regions {
			d := uint64(len(r)) << 1
			if holdsEscapeByte(r) {
				d |= 1
			}
			dir = append(dir, d)
		}
	}
	for _, d := range dir {
		p = binary.AppendUvarint(p, d)
	}
	for _, l := range pp.lens {
		p = binary.AppendUvarint(p, l)
	}
	return binary.LittleEndian.AppendUint64(p, foot)
}

// sealed is the block of n records that pp's payload makes, raw.
func (pp payloadParts) sealed(n uint64) []byte { return sealPayload(0, n, pp.bytes()) }

// twoByThree is the payload EncodeBlock makes of "a\tbb", "c\tdd", "e\tff":
// every hostile payload below is this one with a part of it changed.
func twoByThree() payloadParts {
	return payloadParts{
		maxCols: 2, minCols: 2,
		regions: [][]byte{values("a", "c", "e"), values("bb", "dd", "ff")},
		lens:    []uint64{4, 4, 4},
	}
}

// hostilePayloads are checksummed blocks no encoder writes. The first few
// cannot be read whole; the rest decode, or not, as they will — a directory
// that misstates a line length or a flag is believed: the checksum is what
// says the encoder wrote it — and are here for the fuzzer to start from.
func hostilePayloads() (mustFail, other [][]byte) {
	with := func(change func(*payloadParts)) []byte {
		pp := twoByThree()
		change(&pp)
		return pp.sealed(3)
	}
	mustFail = [][]byte{
		with(func(pp *payloadParts) { pp.foot = func(h uint64) uint64 { return h + 100 } }), // directory offset past the end
		with(func(pp *payloadParts) { pp.foot = func(uint64) uint64 { return 0 } }),         // and before the header
		with(func(pp *payloadParts) { pp.dir = []uint64{6 << 1, 1 << 20} }),                 // directory lengths overrun the regions
		with(func(pp *payloadParts) { pp.lens[1] = 1 << 63 }),                               // a line longer than the payload
		with(func(pp *payloadParts) { pp.lens = pp.lens[:2] }),                              // a line length short
		with(func(pp *payloadParts) { pp.minCols = 3 }),                                     // minCols > maxCols
		with(func(pp *payloadParts) { pp.minCols, pp.maxCols = 0, 0 }),                      // no column at all
		with(func(pp *payloadParts) { pp.minCols, pp.counts = 1, []uint64{2, 3, 2} }),       // a count above maxCols
		with(func(pp *payloadParts) { pp.minCols, pp.counts = 1, []uint64{2, 0, 2} }),       // and one below minCols
		with(func(pp *payloadParts) { pp.regions[1][0] = 0x7f }),                            // a value overruns its region
		with(func(pp *payloadParts) { pp.regions[1][3] = 1<<7 | 5 }),                        // a long length that overruns it
		twoByThree().sealed(1 << 40),                                                        // a record count to size nothing by
	}
	other = [][]byte{
		with(func(pp *payloadParts) { pp.lens[2] = 5 }),                                            // a line length that is not its values'
		with(func(pp *payloadParts) { pp.regions[0][1], pp.dir = '\\', []uint64{6 << 1, 9 << 1} }), // an escape under a clear flag
		with(func(pp *payloadParts) { pp.counts = []uint64{2, 2, 2} }),                             // counts in a uniform block
		with(func(pp *payloadParts) { pp.dir = []uint64{4 << 1, 9 << 1} }),                         // directory lengths under-cover the regions
		with(func(pp *payloadParts) { pp.dir = []uint64{6<<1 | 1, 9<<1 | 1} }),                     // flags set over plain values
		with(func(pp *payloadParts) { pp.lens = append(pp.lens, 4) }),                              // a line length too many
		with(func(pp *payloadParts) { pp.foot = func(h uint64) uint64 { return h - 1 } }),          // the directory begins in a region
		twoByThree().sealed(2), // fewer records than the payload has
	}
	return mustFail, other
}

func TestDecodeBlockRejectsMalformed(t *testing.T) {
	good := EncodeBlock([]string{"a\tb", "c"}, false)
	bad := [][]byte{
		nil,
		{},
		{blockVersion},
		{blockVersion, 0, 1, 0, 0, 0},     // no room for a checksum
		append([]byte{0x01}, good[1:]...), // the version before
		good[:len(good)-1],                // truncated: the checksum is of more
		append(append([]byte{}, good[:3]...), 0xff),        // mangled
		sealPayload(blockFlagFlate, 3, []byte{0xff, 0xff}), // checksummed, and no flate stream
		sealPayload(0, 1, nil),                             // checksummed, and no payload
	}
	hostile, _ := hostilePayloads()
	for i, data := range append(bad, hostile...) {
		if _, err := DecodeBlock(data); err == nil {
			t.Errorf("case %d: expected error for malformed block %x", i, data)
		}
	}
	if got, err := DecodeBlock(twoByThree().sealed(3)); err != nil || !slices.Equal(got, []string{"a\tbb", "c\tdd", "e\tff"}) {
		t.Fatalf("the payload the hostile ones are made from = %q, %v", got, err)
	}
	if data := twoByThree().sealed(3); !bytes.Equal(data, EncodeBlock([]string{"a\tbb", "c\tdd", "e\tff"}, false)) {
		t.Fatalf("payloadParts and EncodeBlock disagree on the layout:\n%x\n%x", data, EncodeBlock([]string{"a\tbb", "c\tdd", "e\tff"}, false))
	}
}

// TestDecodeBlockHostileLengths pins the two panics arbitrary bytes used
// to reach: a value length of 2^63 or more wrapped the end offset
// negative, past the overrun check and into a slice expression, and a
// record count of 2^40 went straight to make. Both now need a good
// checksum to get that far.
func TestDecodeBlockHostileLengths(t *testing.T) {
	long := twoByThree()
	long.regions[0] = append(binary.AppendUvarint(nil, 1<<63|5), "ace"...)
	for i, data := range [][]byte{
		long.sealed(3),
		twoByThree().sealed(1 << 40),
	} {
		if _, err := DecodeBlock(data); err == nil {
			t.Errorf("case %d: hostile block decoded without error", i)
		}
		var b Batch
		if err := b.decode(data, 0, 2, []bool{true}); err == nil {
			t.Errorf("case %d: hostile block read as a batch without error", i)
		}
	}
}

// TestPrunedReadTouchesCarriedRegionsOnly documents how lazy a read is: past
// the checksum, which vouches for all of a block, it looks at the columns it
// carries up to the last record it returns, and at nothing else. A block
// whose checksum is good and whose second column is malformed — which no
// encoder writes and no flipped bit leaves — reads correctly under a mask
// without that column and fails under any with it; one malformed past
// record 1 reads correctly up to there.
func TestPrunedReadTouchesCarriedRegionsOnly(t *testing.T) {
	pp := twoByThree()
	pp.regions[1][3] = 0x7f // the second value of column 1 claims 127 bytes
	data := pp.sealed(3)
	var b Batch
	for _, need := range [][]bool{{true}, {true, false}} {
		if err := b.decode(data, 0, 3, need); err != nil || b.LineBytes() != 15 {
			t.Fatalf("need %v: err=%v, %d line bytes: want the three records, 15 bytes", need, err, b.LineBytes())
		}
		if got, _ := batchRecords(&b, need); !slices.EqualFunc(got, [][]string{{"a", "·"}, {"c", "·"}, {"e", "·"}}, slices.Equal) {
			t.Fatalf("need %v = %q", need, got)
		}
	}
	for _, need := range [][]bool{nil, {false, true}, {true, true}} {
		if err := b.decode(data, 0, 3, need); err == nil {
			t.Errorf("need %v: the malformed column was carried and nothing failed", need)
		}
		if err := b.decode(data, 0, 1, need); err != nil {
			t.Errorf("need %v, [0,1): %v: the walk stops at the last record asked for", need, err)
		}
	}
	if _, err := DecodeBlock(data); err == nil {
		t.Error("the whole decode carries every column and did not fail")
	}
	if got, err := decodeBlockRange(nil, data, 0, 1); err != nil || !slices.Equal(got, []string{"a\tbb"}) {
		t.Errorf("lines [0,1) = %q, %v", got, err)
	}
}

// TestAnyFlippedByteFailsEveryRead: the checksum covers the header and the
// stored payload, so a flipped bit anywhere in an encoded block, raw or
// compressed, is an error for every range, both shapes and every mask.
func TestAnyFlippedByteFailsEveryRead(t *testing.T) {
	lines := slices.Repeat([]string{"station-01\t20\tsunny", "station-02\t21\tsunny"}, 8)
	for _, compress := range []bool{false, true} {
		data := EncodeBlock(lines, compress)
		if compress != (data[1]&blockFlagFlate != 0) {
			t.Fatalf("compress=%v: flags %#x", compress, data[1])
		}
		var b Batch
		for i := range data {
			for bit := 0; bit < 8; bit++ {
				bad := slices.Clone(data)
				bad[i] ^= 1 << bit
				if _, err := DecodeBlock(bad); err == nil {
					t.Fatalf("compress=%v: byte %d bit %d flipped and the block decodes", compress, i, bit)
				}
				if _, err := decodeBlockRange(nil, bad, 3, 4); err == nil {
					t.Fatalf("compress=%v: byte %d bit %d flipped and a range decodes", compress, i, bit)
				}
				for _, need := range [][]bool{nil, {}, {false, true}} {
					if err := b.decode(bad, 0, 1, need); err == nil {
						t.Fatalf("compress=%v: byte %d bit %d flipped and a batch reads under %v", compress, i, bit, need)
					}
				}
			}
		}
	}
}

// blockShapes are record sets that between them meet every branch of the
// layout: a uniform block (no column counts), ragged ones with and without
// one-column records and empty lines, escapes in one column only, and
// values and lines whose lengths take two bytes.
func blockShapes() map[string][]string {
	long := strings.Repeat("v", 200)
	return map[string][]string{
		"uniform":     slices.Repeat([]string{"a\tbb\tccc", "d\t\tf", "\t\t", "g\thh\ti"}, 5),
		"one column":  {"a", "", "bb", "", "", "ccc"},
		"ragged":      slices.Repeat([]string{"a\tb\tc", "", "d", "\t\t", "e\tf", "g\th\ti\tj", "k", "\tl", ""}, 3),
		"ragged wide": slices.Repeat([]string{"a\tb\tc", "d\te", "f\tg\th\ti"}, 4),
		"escapes":     {"a\tb\tc", "d\tx\\y\tf", "g\th\ti", "j\tk\nl\tm", "n\to\tp", "q\tr\ts"},
		"long":        {long + "\tb", "a\t" + long, strings.Repeat("w\t", 150) + "end", "short\tline", long + long + "\t" + long},
		"length 10":   {"0123456789\tb", strings.Repeat("y", '\\') + "\tc", "d\te"}, // a length byte that is one of the two escapes
	}
}

// TestDecodeBlockRange: every range of a block decodes to exactly those
// records, whatever its shape, compressed and raw; out-of-range bounds
// clamp.
func TestDecodeBlockRange(t *testing.T) {
	for name, want := range blockShapes() {
		for _, compress := range []bool{false, true} {
			data := EncodeBlock(want, compress)
			for lo := 0; lo <= len(want); lo++ {
				for hi := lo; hi <= len(want); hi++ {
					got, err := decodeBlockRange(nil, data, lo, hi)
					if err != nil {
						t.Fatalf("%s compress=%v [%d,%d): %v", name, compress, lo, hi, err)
					}
					if !slices.Equal(got, want[lo:hi]) {
						t.Fatalf("%s compress=%v [%d,%d) = %q, want %q", name, compress, lo, hi, got, want[lo:hi])
					}
				}
			}
			got, err := decodeBlockRange([]string{"kept"}, data, -3, len(want)+9)
			if err != nil || !slices.Equal(got, append([]string{"kept"}, want...)) {
				t.Fatalf("%s compress=%v clamped append = %q, %v", name, compress, got, err)
			}
		}
	}
}

// TestPooledDeflateMatchesFresh: a deflater that has already compressed
// other blocks emits the bytes a newly built one would, so which pooled
// state a block meets never shows in the store.
func TestPooledDeflateMatchesFresh(t *testing.T) {
	var blocks [][]string
	for b := 0; b < 4; b++ {
		lines := make([]string, 300+b)
		for i := range lines {
			lines[i] = fmt.Sprintf("station-%03d\t%d\tsky-%d", (i*(b+3))%11, 20+i%5, b)
		}
		blocks = append(blocks, lines)
	}
	for round := 0; round < 2; round++ { // second round meets used deflaters only
		for b, lines := range blocks {
			raw := EncodeBlock(lines, false)
			_, w := binary.Uvarint(raw[2:])
			var fresh bytes.Buffer
			zw, err := flate.NewWriter(&fresh, flate.BestSpeed)
			if err != nil {
				t.Fatal(err)
			}
			zw.Write(raw[2+w+4:]) // past the checksum
			zw.Close()
			want := sealPayload(blockFlagFlate, uint64(len(lines)), fresh.Bytes())
			if got := EncodeBlock(lines, true); !bytes.Equal(got, want) {
				t.Fatalf("round %d block %d: pooled deflater output differs from a fresh writer's", round, b)
			}
		}
	}
}

// TestBlockDecodeAllocs pins the decode's allocation count as independent
// of the record count: the column counts, one cursor per column, the
// backing string, the line ends and the line slice.
func TestBlockDecodeAllocs(t *testing.T) {
	lines := make([]string, 1000)
	for i := range lines {
		lines[i] = fmt.Sprintf("station-%03d\t%d\tclear-%d", i%50, 20+i%7, i%3)
	}
	for _, compress := range []bool{false, true} {
		data := EncodeBlock(lines, compress)
		// The minimum over single runs, not the mean: under -race
		// sync.Pool drops a quarter of its Puts on purpose, and a decode
		// that has to rebuild its inflater is not the steady state
		// pinned here.
		got := math.Inf(1)
		for i := 0; i < 50; i++ {
			got = min(got, testing.AllocsPerRun(1, func() {
				if _, err := DecodeBlock(data); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if got > 10 {
			t.Errorf("compress=%v: DecodeBlock of 1000 records = %v allocs, want <= 10", compress, got)
		}
	}
}

// TestSealSpillReadBack drives the full pipeline — seal at a tiny block
// size, spill under a tiny budget, read everything back — and checks
// byte-identical recovery plus the resident-budget invariant.
func TestSealSpillReadBack(t *testing.T) {
	for _, compress := range []bool{false, true} {
		fs := NewWith(Options{BlockSize: 256, MemBudget: 512, SpillDir: t.TempDir(), Compress: compress})
		rng := rand.New(rand.NewSource(7))
		var want []string
		for i := 0; i < 400; i++ {
			line := fmt.Sprintf("k%d\tv%d\t%s", rng.Intn(50), i, strings.Repeat("x", rng.Intn(40)))
			want = append(want, line)
			fs.Append("data/in", line)
		}
		if err := fs.SpillErr(); err != nil {
			t.Fatalf("compress=%v: spill error: %v", compress, err)
		}
		if fs.SpilledBlocks() == 0 {
			t.Fatalf("compress=%v: expected spilling under 512-byte budget", compress)
		}
		if got := fs.MaxResidentBytes(); got > 512+256*2 {
			// Budget is enforced at append boundaries; transiently one
			// oversized just-sealed block may exceed it, but not by more
			// than a couple of block sizes.
			t.Fatalf("compress=%v: max resident %d far above budget", compress, got)
		}
		got, err := fs.ReadLines("data/in")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("compress=%v: got %d lines want %d", compress, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("compress=%v: line %d: got %q want %q", compress, i, got[i], want[i])
			}
		}
		if err := fs.Close(); err != nil {
			t.Fatalf("compress=%v: close: %v", compress, err)
		}
	}
}

// TestReadBackFailsClosed: a spilled output block that cannot be read back
// — one byte of it flipped in the spill file, or the spill file closed —
// fails ReadLines and ReadTree with an error that is the block's
// *BlockError, and a Reader's ReadRange, which has no error to return,
// panics with it.
func TestReadBackFailsClosed(t *testing.T) {
	dir := t.TempDir()
	fs := NewWith(Options{BlockSize: 256, MemBudget: 256, SpillDir: dir, Compress: true})
	for p := range 2 {
		lines := make([]string, 200)
		for i := range lines {
			lines[i] = fmt.Sprintf("k%d\t%d\t%x", p, i, i*i*7919)
		}
		fs.Append(fmt.Sprintf("out/part-%d", p), lines...)
	}
	if fs.SpilledBlocks() < 4 {
		t.Fatalf("%d blocks spilled, want several", fs.SpilledBlocks())
	}
	files, err := filepath.Glob(filepath.Join(dir, "clusterbft-spill-*.blk"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill files %v (%v)", files, err)
	}
	spill, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	spill[10] ^= 0x10 // a byte of the first block spilled: block 0 of part-0
	if err := os.WriteFile(files[0], spill, 0o600); err != nil {
		t.Fatal(err)
	}
	failed := func(who string, err error, cause string) {
		t.Helper()
		var bad *BlockError
		if !errors.As(err, &bad) || bad.Path != "out/part-0" || bad.Block != 0 || !strings.Contains(err.Error(), cause) {
			t.Fatalf("%s: err = %v; want a *BlockError for block 0 of out/part-0 naming %q", who, err, cause)
		}
	}
	_, err = fs.ReadLines("out/part-0")
	failed("ReadLines", err, "checksum")
	_, err = fs.ReadTree("out")
	failed("ReadTree", err, "checksum")
	if _, err := fs.ReadLines("out/part-1"); err != nil {
		t.Errorf("ReadLines of the other part: %v", err)
	}
	r, err := fs.OpenReader("out/part-0")
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			err, _ := recover().(error)
			failed("ReadRange", err, "checksum")
		}()
		r.ReadRange(0, 1)
	}()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = fs.ReadTree("out")
	failed("ReadTree after Close", err, "spill file is closed")
}

// TestOneAppendSealsLikeMany: an Append that seals ten blocks leaves the
// file exactly as ten Appends sealing one block each do — same blocks,
// same unsealed tail, same lines read back — with and without a spill
// budget. The tail is cut off the pending array once per Append, however
// many blocks came off it.
func TestOneAppendSealsLikeMany(t *testing.T) {
	const blockSize, perBlock, blocks = 256, 16, 10 // 16 lines of 15 bytes + newline
	lines := make([]string, perBlock*blocks+5)      // five lines stay unsealed
	for i := range lines {
		lines[i] = fmt.Sprintf("key-%04d\t%06d", i%37, i)
	}
	for _, budget := range []int64{0, 512} {
		opts := Options{BlockSize: blockSize, MemBudget: budget, Compress: budget > 0}
		if budget > 0 {
			opts.SpillDir = t.TempDir()
		}
		one, many := NewWith(opts), NewWith(opts)
		one.Append("f", lines...)
		for i := 0; i < len(lines); i += perBlock {
			many.Append("f", lines[i:min(i+perBlock, len(lines))]...)
		}
		for _, fs := range []*FS{one, many} {
			f := fs.files["f"]
			if len(f.blocks) != blocks || len(f.pending) != 5 || f.pendingBytes != 5*16 {
				t.Fatalf("budget %d: %d blocks, %d pending lines (%d bytes), want %d, 5 (80)",
					budget, len(f.blocks), len(f.pending), f.pendingBytes, blocks)
			}
			if cap(f.pending) > 2*len(f.pending) {
				t.Errorf("budget %d: tail keeps an array of %d for %d lines: sealed strings stay reachable", budget, cap(f.pending), len(f.pending))
			}
			got, err := fs.ReadLines("f")
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, lines) {
				t.Errorf("budget %d: read back %d lines, not the %d appended", budget, len(got), len(lines))
			}
		}
		if one.ResidentBytes() != many.ResidentBytes() || one.SpilledBlocks() != many.SpilledBlocks() {
			t.Errorf("budget %d: one Append leaves %d resident bytes and %d spilled blocks, ten leave %d and %d",
				budget, one.ResidentBytes(), one.SpilledBlocks(), many.ResidentBytes(), many.SpilledBlocks())
		}
		if err := errors.Join(one.Close(), many.Close()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBlockEncodeAllocs pins block encoding at a fixed number of
// allocations whatever the record count: the block, laid out before it is
// written, and nothing a record.
func TestBlockEncodeAllocs(t *testing.T) {
	lines := make([]string, 1000)
	for i := range lines {
		lines[i] = fmt.Sprintf("station-%03d\t%d\tclear-%d", i%50, 20+i%7, i%3)
	}
	if got := testing.AllocsPerRun(20, func() { _ = EncodeBlock(lines, false) }); got > 1 {
		t.Errorf("EncodeBlock = %v allocs per 1000 records, want 1", got)
	}
}

// TestSealAllocs pins what sealing a block costs in memory: 1,000
// two-column lines take one object, the block, and no more bytes than it
// and 64 — no span table, no payload built apart and copied behind the
// header. The heap hands out memory in size classes, so
// the block counts as the class it rounds up to.
func TestSealAllocs(t *testing.T) {
	class := func(n int) int { return cap(slices.Grow([]byte(nil), n)) }
	lines := make([]string, 1000)
	for i := range lines {
		lines[i] = fmt.Sprintf("user%04d\t%d", i*7%1000, i%50)
	}
	data, _ := encodeBlockStats(lines, false)
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		data, _ = encodeBlockStats(lines, false)
	}
	runtime.ReadMemStats(&after)
	objects := (after.Mallocs - before.Mallocs) / runs
	held := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(class(len(data)) + 64); objects > 1 || held > limit {
		t.Errorf("sealing 1000 lines into a %d-byte block = %d objects, %d bytes; want 1 object, <= %d bytes", len(data), objects, held, limit)
	}
}

func TestReaderRangesOnSpilledFile(t *testing.T) {
	fs := NewWith(Options{BlockSize: 128, MemBudget: 256, SpillDir: t.TempDir(), Compress: true})
	defer fs.Close()
	var want []string
	for i := 0; i < 300; i++ {
		line := fmt.Sprintf("row\t%04d", i)
		want = append(want, line)
		fs.Append("t/f", line)
	}
	r, err := fs.OpenReader("t/f")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRecords() != len(want) {
		t.Fatalf("NumRecords=%d want %d", r.NumRecords(), len(want))
	}
	for _, rg := range [][2]int{{0, 1}, {0, 300}, {37, 113}, {250, 300}, {299, 300}, {150, 150}, {-5, 9999}} {
		lo, hi := rg[0], rg[1]
		got := r.ReadRange(lo, hi)
		clo, chi := lo, hi
		if clo < 0 {
			clo = 0
		}
		if chi > len(want) {
			chi = len(want)
		}
		if clo > chi {
			clo = chi
		}
		if len(got) != chi-clo {
			t.Fatalf("ReadRange(%d,%d): got %d lines want %d", lo, hi, len(got), chi-clo)
		}
		for i := range got {
			if got[i] != want[clo+i] {
				t.Fatalf("ReadRange(%d,%d)[%d] = %q want %q", lo, hi, i, got[i], want[clo+i])
			}
		}
	}
}

func TestTreeReaderMatchesReadTree(t *testing.T) {
	fs := NewWith(Options{BlockSize: 64})
	for p := 0; p < 3; p++ {
		for i := 0; i < 40; i++ {
			fs.Append(fmt.Sprintf("out/part-%05d", p), fmt.Sprintf("p%d\t%d", p, i))
		}
	}
	want, err := fs.ReadTree("out")
	if err != nil {
		t.Fatal(err)
	}
	r, err := fs.OpenTreeReader("out")
	if err != nil {
		t.Fatal(err)
	}
	got := r.ReadRange(0, r.NumRecords())
	if len(got) != len(want) {
		t.Fatalf("tree reader: %d lines want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tree reader line %d: got %q want %q", i, got[i], want[i])
		}
	}
	if _, err := fs.OpenTreeReader("nope"); err == nil {
		t.Fatal("expected ErrNotFound for missing tree")
	}
}

func TestOpenReaderHonorsReadHook(t *testing.T) {
	fs := NewWith(Options{BlockSize: 32})
	for i := 0; i < 20; i++ {
		fs.Append("h/f", fmt.Sprintf("line%d", i))
	}
	calls := 0
	fs.ReadHook = func(path string, lines []string) []string {
		calls++
		out := append([]string(nil), lines...)
		out[0] = "mangled"
		return out
	}
	r, err := fs.OpenReader("h/f")
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("hook fired %d times at open, want exactly 1", calls)
	}
	got := r.ReadRange(0, r.NumRecords())
	if got[0] != "mangled" || got[1] != "line1" {
		t.Fatalf("hooked reader stream wrong: %q", got[:2])
	}
	if calls != 1 {
		t.Fatalf("hook fired again on ReadRange (%d calls)", calls)
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"0": 0, "123": 123, "4k": 4 << 10, "4K": 4 << 10,
		"2m": 2 << 20, "1G": 1 << 30, " 8m ": 8 << 20,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Fatalf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// The last two overflow int64 once multiplied: a wrapped negative
	// budget would read as "no budget" to enforceBudget.
	for _, bad := range []string{"", "-1", "x", "12q", "k", "1.5m", "9999999999g", "9223372036854775807k"} {
		_, err := ParseBytes(bad)
		if err == nil {
			t.Fatalf("ParseBytes(%q): expected error", bad)
		}
		if !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Fatalf("ParseBytes(%q) error %q does not quote the input", bad, err)
		}
	}
	if got, err := ParseBytes("8589934591g"); err != nil || got != 8589934591<<30 {
		t.Fatalf("largest representable g size = %d, %v", got, err)
	}
}

func TestDeleteReleasesResidentMemory(t *testing.T) {
	fs := NewWith(Options{BlockSize: 64})
	for i := 0; i < 100; i++ {
		fs.Append("d/f", fmt.Sprintf("some line %d", i))
	}
	if fs.ResidentBytes() == 0 {
		t.Fatal("expected sealed resident blocks before delete")
	}
	if err := fs.Delete("d/f"); err != nil {
		t.Fatal(err)
	}
	if got := fs.ResidentBytes(); got != 0 {
		t.Fatalf("resident bytes %d after deleting only file", got)
	}
	if got := fs.ResidentBlocks(); got != 0 {
		t.Fatalf("resident blocks %d after deleting only file", got)
	}
}
