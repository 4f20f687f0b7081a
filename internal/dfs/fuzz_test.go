package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzBlockRoundTrip feeds arbitrary record content — including raw
// tabs, newlines-as-escapes, backslashes and the tuple codec's escape
// sequences — through the complete at-rest pipeline: columnar encode,
// optional flate compression, seal into a budgeted FS, spill to disk,
// load back, decompress, decode. The reconstructed record lines must be
// byte-identical to the originals at every stage, and every block the
// encoder makes — of the lines, and of the input as one line holding raw
// newlines — byte-identical to the reference encoder's, with no capacity
// past its length for the memory budget to miss.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add("plain\tfields\there", true)
	f.Add("esc\\taped\\nvalue\\\\", false)
	f.Add("", true)
	f.Add("\t\t\t", true)
	f.Add("a\nb\nc\td", false)
	f.Add("unicode → ünïcode\tmore", true)
	f.Add(strings.Repeat("wide\tblock\t", 400), true)
	// Ragged past the encoder's stack room for 16 regions, values whose
	// length takes two bytes, the empty line.
	f.Add(strings.Repeat("v", 300)+"\tx\n\n"+strings.Repeat("c\\t\t", 20)+"\nshort", false)
	// Few distinct values a column, so that the block is dictionary-coded:
	// airline rows, ragged rows with empty lines and an escape, a column of
	// exactly 256 values and one of 257.
	f.Add(strings.Repeat("2008\t1\tATL\tORD\t-3\n2008\t2\tSFO\tORD\t7\n", 30), true)
	f.Add(strings.Repeat("a\tb\n\nc\nd\te\tf\\g\n", 12), true)
	f.Add(strings.Join(cycling(512, 256), "\n"), true)
	f.Add(strings.Join(cycling(514, 257), "\n"), true)
	// Uniform blocks of more than 1,024 records, which carry a row index:
	// raw, deflated, and one the dictionary codes (which has none).
	f.Add(strings.Join(indexedLines(), "\n"), false)
	f.Add(strings.Join(indexedLines(), "\n"), true)
	f.Add(strings.Join(cycling(3100, 200), "\n"), true)
	f.Fuzz(func(t *testing.T, raw string, compress bool) {
		// Interpret the fuzz input as a small file: newline-separated
		// record lines, each holding arbitrary (possibly tab/backslash
		// riddled) content.
		lines := strings.Split(raw, "\n")

		for _, in := range [][]string{lines, {raw}} {
			want, wantRaw := referenceEncodeBlock(in, compress)
			buf, ends := joinLines(in)
			for _, enc := range []func() ([]byte, int){
				func() ([]byte, int) { return encodeBlockStats(lineSet[string]{lines: in}, compress) },
				func() ([]byte, int) { return encodeBlockStats(lineSet[[]byte]{buf: buf, ends: ends}, compress) },
			} {
				got, gotRaw := enc()
				if !bytes.Equal(got, want) || gotRaw != wantRaw {
					t.Fatalf("%q: encoded (payload %d)\n%x\nthe reference encoder (payload %d)\n%x", in, gotRaw, got, wantRaw, want)
				}
				if cap(got) != len(got) {
					t.Fatalf("%q: a block of %d bytes holds %d", in, len(got), cap(got))
				}
			}
		}

		// Stage 1: bare codec round-trip.
		data := EncodeBlock(lines, compress)
		n, _, err := header(data)
		if err != nil {
			t.Fatalf("header on own encoding: %v", err)
		}
		if int(n) != len(lines) {
			t.Fatalf("header counts %d records, want %d", n, len(lines))
		}
		got, err := DecodeBlock(data)
		if err != nil {
			t.Fatalf("DecodeBlock on own encoding: %v", err)
		}
		if len(got) != len(lines) {
			t.Fatalf("decode returned %d lines, want %d", len(got), len(lines))
		}
		for i := range lines {
			if got[i] != lines[i] {
				t.Fatalf("line %d: decode %q, want %q", i, got[i], lines[i])
			}
		}
		// A range decode returns the same records a whole decode would, as
		// lines and as a batch under a mask; range and mask are derived from
		// the input so the corpus moves them.
		lo := len(raw) % (len(lines) + 1)
		hi := lo + (len(raw)/7)%(len(lines)-lo+1)
		need := []bool{len(raw)&1 != 0, len(raw)&2 != 0, len(raw)&4 != 0}
		part, err := decodeBlockRange(nil, data, lo, hi)
		if err != nil || !slices.Equal(part, lines[lo:hi]) {
			t.Fatalf("range [%d,%d) = %q, %v; want %q", lo, hi, part, err, lines[lo:hi])
		}
		var b Batch
		for _, need := range [][]bool{nil, need} {
			if err := b.decode(data, lo, hi, 0, need); err != nil {
				t.Fatalf("batch [%d,%d) need %v: %v", lo, hi, need, err)
			}
			checkBatch(t, &b, part, need, true)
		}

		// Stage 2: the same records through a spilling FS — tiny blocks
		// and a tiny budget so sealing and spilling both trigger — read
		// back whole, and segment by segment as batches.
		fs := NewWith(Options{BlockSize: 64, MemBudget: 128, SpillDir: t.TempDir(), Compress: compress})
		defer fs.Close()
		for _, l := range lines {
			fs.Append("fuzz/f", l)
		}
		back, err := readLines(fs, "fuzz/f")
		if err != nil {
			t.Fatalf("readLines: %v", err)
		}
		if !slices.Equal(back, lines) {
			t.Fatalf("FS returned %q, want %q", back, lines)
		}
		r, err := fs.OpenReader("fuzz/f")
		if err != nil {
			t.Fatal(err)
		}
		for at := 0; at < r.NumRecords(); {
			next := r.ReadColumns(&b, at, r.NumRecords(), need)
			checkBatch(t, &b, lines[at:next], need, true)
			if !slices.Equal(r.ReadRange(at, next), lines[at:next]) {
				t.Fatalf("ReadRange(%d,%d) = %q, want %q", at, next, r.ReadRange(at, next), lines[at:next])
			}
			at = next
		}
		if err := fs.SpillErr(); err != nil {
			t.Fatalf("spill error: %v", err)
		}
	})
}

// checkBatch holds a batch read under need to the lines of the same
// records. Of a block the encoder wrote (honest) it reads each as
// tuple.DecodeLine does, plain exactly where the line holds no escape
// byte, with the line bytes the lines add up to (readsAs). Of any other it
// reads as many records, and a line with no escape byte as plain; a record
// it calls plain is the line's values split at its tabs, and any other is
// what tuple.DecodeLine reads: whether a value holds an escape byte, like
// the line bytes, is the directory's word, which a hostile payload under a
// good checksum may have made up. It consumes b.
func checkBatch(t *testing.T, b *Batch, lines []string, need []bool, honest bool) {
	t.Helper()
	if honest {
		readsAs(t, fmt.Sprintf("need %v", need), b, lines, need)
		return
	}
	got, plain := batchRecords(b, need)
	if len(got) != len(lines) {
		t.Fatalf("need %v: %d records, want %d", need, len(got), len(lines))
	}
	for i, l := range lines {
		switch {
		case isPlain(l) && !plain[i]:
			t.Fatalf("need %v: %q is not plain", need, l)
		case plain[i] && strings.Join(got[i], "\t") != masked(l, need),
			!plain[i] && !slices.Equal(got[i], decoded(l, need)):
			t.Fatalf("need %v: %q (plain %v) reads as %q", need, l, plain[i], got[i])
		}
	}
}

// masked is a line split at its tabs and joined again, the columns need
// does not carry shown as "·".
func masked(line string, need []bool) string {
	if line == "" {
		return "" // the empty line has no column to mask
	}
	vals := strings.Split(line, "\t")
	for c := range vals {
		if !carries(need, c) {
			vals[c] = "·"
		}
	}
	return strings.Join(vals, "\t")
}

// FuzzDecodeBlockNoPanic hands the block decoder arbitrary bytes, as a
// corrupted spill file would, and payloads of its own making under a good
// checksum (sealPayload), which no spill file holds but which get the
// fuzzer past openBlock. Whatever the bytes, a read returns records or an
// error, never panics or sizes an allocation from an unchecked length. A
// block that fails its header or checksum fails every read. And one that
// decodes whole reads the same every other way: every range, as lines and
// as a batch under every mask, succeeds and is that slice of it
// (checkBatch). Only the implication holds, not its converse: a read looks
// at what it carries (TestPrunedReadTouchesCarriedRegionsOnly).
func FuzzDecodeBlockNoPanic(f *testing.F) {
	f.Add(EncodeBlock([]string{"a\tb", "c", "\t\t"}, false), 1, 2)
	f.Add(EncodeBlock([]string{strings.Repeat("wide\tblock\t", 40)}, true), 0, 1)
	f.Add(EncodeBlock([]string{"a", "b"}, false), 1, -28)
	f.Add(EncodeBlock([]string{"", "x\\\ty", "", "p\tq\tr"}, false), 0, 4)
	f.Add(EncodeBlock(slices.Repeat([]string{"2008\t1\tATL\tORD\t-3"}, 9), true), 2, 7)
	f.Add(sealPayload(blockFlagFlate, 3, []byte{0xff, 0xff}), 0, 0)
	// Dictionary-coded blocks, which mutations take to codes past their
	// dictionary, dictionaries of no value or of more than 256, truncated
	// ones, and code counts the directory disagrees with.
	f.Add(EncodeBlock(slices.Repeat([]string{"2008\t1\tATL\tORD\t-3", "2008\t2\tSFO\tORD\t7"}, 9), true), 3, 11)
	f.Add(EncodeBlock(slices.Repeat([]string{"a\tb", "", "c", "d\te\tf\\g"}, 6), true), 1, 20)
	f.Add(EncodeBlock(cycling(300, 256), true), 250, 290)
	f.Add(twoByFourCoded().coded(4), 1, 3)
	for _, data := range hostileCodedPayloads() {
		f.Add(data, 0, 4)
	}
	f.Add([]byte{blockVersion, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 1, 0}, 0, 9)
	mustFail, other := hostilePayloads()
	for _, data := range append(mustFail, other...) {
		f.Add(data, 0, 3)
		f.Add(data, 1, 2)
	}
	// Version 3's parts under a good checksum: row index entries past their
	// regions, out of order or a record late, and column facts that claim
	// canonical integers over letters, raw and coded; the index read from
	// 0, from an entry and from between two.
	lying := twoByFourCoded()
	lying.facts = []uint64{0, 0}
	f.Add(lying.coded(4), 0, 4)
	mustFail, other = hostileIndexPayloads()
	for _, data := range append(mustFail, other...) {
		f.Add(data, 0, 2500)
		f.Add(data, 1024, 1100)
		f.Add(data, 2100, 2500)
	}
	masks := [][]bool{nil, {}}
	for m := 1; m < 8; m++ {
		masks = append(masks, []bool{m&1 != 0, m&2 != 0, m&4 != 0})
	}
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int) {
		_, _, _, z, openErr := openBlock(data)
		if z != nil {
			inflaters.Put(z)
		}
		all, err := DecodeBlock(data)
		part, perr := decodeBlockRange(nil, data, lo, hi)
		if openErr != nil && (err == nil || perr == nil) {
			t.Fatalf("block does not open (%v) and decodes: whole err %v, range err %v", openErr, err, perr)
		}
		if err == nil {
			if n, _, nerr := header(data); nerr != nil || int(n) != len(all) {
				t.Fatalf("header counts %d records, %v; decoded %d", n, nerr, len(all))
			}
			hi = max(0, min(hi, len(all)))
			lo = min(max(lo, 0), hi)
			if perr != nil || !slices.Equal(part, all[lo:hi]) {
				t.Fatalf("range [%d,%d) = %q, %v; want %q", lo, hi, part, perr, all[lo:hi])
			}
		}
		var b Batch
		for _, need := range masks {
			berr := b.decode(data, lo, hi, 0, need)
			if openErr != nil && berr == nil {
				t.Fatalf("block does not open (%v) and reads as a batch under %v", openErr, need)
			}
			if err == nil {
				if berr != nil {
					t.Fatalf("whole decode succeeds, batch [%d,%d) under %v: %v", lo, hi, need, berr)
				}
				checkBatch(t, &b, part, need, false)
			}
		}
	})
}

// storeOracle is Install told the long way. An install adds, after what
// the file holds, the blocks of its own lines alone: the shortest prefix
// reaching a block for as long as there is one, and then what is left as
// one short block (Seal) or kept as the tail, in one string of its own
// (SealBuffer, held). A tail the file held is first sealed whole, as one
// short block, ahead of them.
type storeOracle struct{ fs *FS }

func newStoreOracle(opts Options) *storeOracle { return &storeOracle{fs: NewWith(opts)} }

func (o *storeOracle) install(path string, held bool, lines ...string) {
	fs := o.fs
	n := linesBytes(lines)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		f = &file{}
		fs.files[path] = f
		fs.insertPath(path)
	}
	fs.bytesWritten.Add(n)
	if len(lines) == 0 {
		return
	}
	f.bytes += n
	add := func(lines []string) {
		data, rawLen := encodeBlockStats(lineSet[string]{lines: lines}, fs.opts.Compress)
		b := &block{path: path, idx: len(f.blocks), records: len(lines), logical: linesBytes(lines), raw: rawLen, data: data}
		f.blocks = append(f.blocks, b)
		fs.rawPayload += int64(rawLen)
		fs.storedPayload += int64(len(data))
		fs.residentBlocks++
		fs.residentBytes += int64(len(data))
		if fs.evicts() {
			fs.residentQ = append(fs.residentQ, b)
		}
	}
	if tail := f.tail.appendStrings(nil); len(tail) > 0 {
		add(tail)
	}
	f.tail = lineSet[string]{}
	sealed, left := 0, n
	for sealed < len(lines) && (left >= int64(fs.opts.BlockSize) || !held) {
		take, taken := 0, 0
		for _, l := range lines[sealed:] {
			taken += len(l) + 1
			take++
			if taken >= fs.opts.BlockSize {
				break
			}
		}
		add(lines[sealed : sealed+take])
		sealed += take
		left -= int64(taken)
	}
	if rest := lines[sealed:]; len(rest) > 0 {
		ends := make([]int32, len(rest))
		at := int32(0)
		for i, l := range rest {
			at += int32(len(l))
			ends[i] = at
		}
		f.tail = lineSet[string]{buf: strings.Join(rest, ""), ends: ends}
	}
	fs.enforceBudget()
	if fs.residentBytes > fs.maxResident {
		fs.maxResident = fs.residentBytes
	}
}

// linesBytes is the logical size of lines: their bytes and a newline each.
func linesBytes(lines []string) int64 {
	var n int64
	for _, l := range lines {
		n += int64(len(l)) + 1
	}
	return n
}

// sameStore fails t unless got holds what want holds: every file's blocks
// (bytes, idx, records, spill offsets) and tail, the path index, the
// eviction queue in order, the block and byte counters and the spill file.
func sameStore(t *testing.T, who string, got, want *FS) {
	t.Helper()
	spill := func(fs *FS) []byte {
		if fs.spillF == nil {
			return nil
		}
		b, err := os.ReadFile(fs.spillF.Name())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"files", got.files, want.files},
		{"paths", got.paths, want.paths},
		{"eviction queue", got.residentQ, want.residentQ},
		{"counters", []int64{got.residentBlocks, got.residentBytes, got.maxResident, got.spilledBlocks, got.spilledBytes,
			got.rawPayload, got.storedPayload, got.spillOff, got.BytesWritten()},
			[]int64{want.residentBlocks, want.residentBytes, want.maxResident, want.spilledBlocks, want.spilledBytes,
				want.rawPayload, want.storedPayload, want.spillOff, want.BytesWritten()}},
		{"spill file", spill(got), spill(want)},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: %s differ:\n got %v\nwant %v", who, c.name, c.got, c.want)
		}
	}
}

// sealedContent is what s holds, less where its blocks were installed.
type sealedContent struct {
	Blocks []blockContent
	Tail   []string
	Bytes  int64
}

type blockContent struct {
	data         []byte
	records, raw int
	logical      int64
}

// sealedLines decodes the lines s was sealed from; its blocks are the
// ones Seal has just written, still resident.
func sealedLines(t *testing.T, s Sealed) []string {
	t.Helper()
	var lines []string
	for _, b := range s.blocks {
		var err error
		if lines, err = decodeBlockRange(lines, b.data, 0, b.records); err != nil {
			t.Fatal(err)
		}
	}
	return s.tail.appendStrings(lines)
}

func contentOf(s Sealed) sealedContent {
	blocks := make([]blockContent, len(s.blocks))
	for i, b := range s.blocks {
		blocks[i] = blockContent{b.data, b.records, b.raw, b.logical}
	}
	return sealedContent{blocks, s.tail.appendStrings(nil), s.Bytes()}
}

// FuzzSealMatchesAppend holds Install of what Seal made, and Append, which
// is built on them, to the oracle (storeOracle): over arbitrary lines cut
// into batches — empty ones, single lines, many blocks' worth — that go to
// two files in turn, so a batch lands behind the short block or the tail
// the one before left (each install's own sealing, concatenated), at any
// block size, with and without compression and a spill budget, both must
// leave the store exactly as the oracle does. What
// Seal made reads back as the batch it was sealed from. A batch's lines
// are cleared once written: a store that kept the caller's array would
// show it. SealBuffer of the batch laid out in one buffer makes Seal's full
// blocks byte for byte and Bytes, and holds what Seal makes a short block
// of as its tail; a store it is installed into, whose buffers are written
// over at once, ends as the oracle's that keeps tails, and a store that
// takes each batch one way or the other as the oracle that does the same.
func FuzzSealMatchesAppend(f *testing.F) {
	f.Add("a\tb\nc\nd\te\tf\n\ng", uint64(0b1011_0110), uint16(8), true, uint16(16))
	f.Add(strings.Repeat("station-7\t21\tsunny\n", 40), uint64(0x0123_4567_89ab_cdef), uint16(64), true, uint16(100))
	f.Add(strings.Repeat("x\n", 90), uint64(7), uint16(3), false, uint16(0))
	f.Add("", uint64(0), uint16(1), false, uint16(1))
	f.Add("long line one\tof text\nshort\n"+strings.Repeat("w\t", 60), uint64(0xffff_0000_ffff), uint16(40), false, uint16(300))
	// Blocks a dictionary codes, sealed whole and across a tail.
	f.Add(strings.Repeat("ATL\tORD\t1\nSFO\tATL\t2\n\n", 40), uint64(0x0123_4567_89ab_cdef), uint16(300), true, uint16(700))
	f.Add(strings.Repeat("k\tv\n", 200), uint64(0b111_010_001), uint16(511), true, uint16(0))
	// Deflated blocks (values too many and too distinct to code), escaped
	// values, ragged rows and empty lines among them.
	f.Add(strings.Join(cycling(300, 300), "\n")+"\nesc\\t\\n\tx\n\n\ta\tb\tc", uint64(0x0fed_cba9_8765_4321), uint16(400), true, uint16(0))
	// Batches of no lines behind a tail, which must leave it as it is (the
	// last a file takes, in the third), and a batch behind a file's only
	// block, a short one.
	f.Add("\n", uint64(8), uint16(8), true, uint16(5))
	f.Add("\n\n", uint64(281470681809040), uint16(17), false, uint16(238))
	f.Add("\n", uint64(6816991773774997000), uint16(8), true, uint16(5))
	f.Fuzz(func(t *testing.T, raw string, cuts uint64, blockSize uint16, compress bool, budget uint16) {
		lines := strings.Split(raw, "\n")
		opts := Options{BlockSize: int(blockSize)%512 + 1, MemBudget: int64(budget) % 2048, Compress: compress}
		if opts.MemBudget > 0 {
			opts.SpillDir = t.TempDir()
		}
		installed, appended, buffered, mixed := NewWith(opts), NewWith(opts), NewWith(opts), NewWith(opts)
		sealOracle, partOracle, mixedOracle := newStoreOracle(opts), newStoreOracle(opts), newStoreOracle(opts)
		defer func() {
			if err := errors.Join(installed.Close(), appended.Close(), buffered.Close(), mixed.Close(),
				sealOracle.fs.Close(), partOracle.fs.Close(), mixedOracle.fs.Close()); err != nil {
				t.Fatal(err)
			}
		}()
		for i, lo := 0, 0; lo < len(lines); i++ {
			hi := len(lines) // a batch of 0 to 6 lines, or of all that are left
			if n := int(cuts >> (3 * (i % 21)) & 7); n < 7 && i < 64 {
				hi = min(lo+n, len(lines))
			}
			batch := lines[lo:hi]
			path := fmt.Sprintf("d/f%d", cuts>>(i%64)&1)
			held := cuts>>((i+5)%64)&1 == 1 // how mixed takes the batch
			sealed := installed.Seal(batch)
			buf, ends := joinLines(batch)
			fromBuf := buffered.SealBuffer(buf, ends)
			want := contentOf(sealed)
			if k := len(sealed.blocks) - 1; k >= 0 && sealed.blocks[k].logical < int64(opts.BlockSize) {
				want.Blocks = want.Blocks[:k]
				var err error
				if want.Tail, err = DecodeBlock(sealed.blocks[k].data); err != nil {
					t.Fatal(err)
				}
			}
			if got := contentOf(fromBuf); !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d: SealBuffer made %+v, Seal's full blocks and short block's lines %+v", i, got, want)
			}
			buffered.Install(path, fromBuf)
			if held {
				mixed.Install(path, mixed.SealBuffer(buf, ends))
			} else {
				mixed.Append(path, batch...)
			}
			for j := range buf {
				buf[j] = 'X'
			}
			if got := sealedLines(t, sealed); !slices.Equal(got, batch) {
				t.Fatalf("batch %d reads back as %q, sealed from %q", i, got, batch)
			}
			installed.Install(path, sealed)
			appended.Append(path, batch...)
			sealOracle.install(path, false, batch...)
			partOracle.install(path, true, batch...)
			mixedOracle.install(path, held, batch...)
			clear(batch)
			lo = hi
		}
		sameStore(t, "Install(Seal)", installed, sealOracle.fs)
		sameStore(t, "Append", appended, sealOracle.fs)
		sameStore(t, "Install(SealBuffer)", buffered, partOracle.fs)
		sameStore(t, "Append or Install(SealBuffer)", mixed, mixedOracle.fs)
	})
}
