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
	f.Fuzz(func(t *testing.T, raw string, compress bool) {
		// Interpret the fuzz input as a small file: newline-separated
		// record lines, each holding arbitrary (possibly tab/backslash
		// riddled) content.
		lines := strings.Split(raw, "\n")

		for _, in := range [][]string{lines, {raw}} {
			got, gotRaw := encodeBlockStats(in, compress)
			want, wantRaw := referenceEncodeBlock(in, compress)
			if !bytes.Equal(got, want) || gotRaw != wantRaw {
				t.Fatalf("%q: encoded (payload %d)\n%x\nthe reference encoder (payload %d)\n%x", in, gotRaw, got, wantRaw, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("%q: a block of %d bytes holds %d", in, len(got), cap(got))
			}
		}

		// Stage 1: bare codec round-trip.
		data := EncodeBlock(lines, compress)
		n, err := BlockRecords(data)
		if err != nil {
			t.Fatalf("BlockRecords on own encoding: %v", err)
		}
		if n != len(lines) {
			t.Fatalf("BlockRecords = %d, want %d", n, len(lines))
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
			if err := b.decode(data, lo, hi, need); err != nil {
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
		back, err := fs.ReadLines("fuzz/f")
		if err != nil {
			t.Fatalf("ReadLines: %v", err)
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
	f.Add([]byte{blockVersion, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 1, 0}, 0, 9)
	mustFail, other := hostilePayloads()
	for _, data := range append(mustFail, other...) {
		f.Add(data, 0, 3)
		f.Add(data, 1, 2)
	}
	masks := [][]bool{nil, {}}
	for m := 1; m < 8; m++ {
		masks = append(masks, []bool{m&1 != 0, m&2 != 0, m&4 != 0})
	}
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int) {
		_, _, z, openErr := openBlock(data)
		if z != nil {
			inflaters.Put(z)
		}
		all, err := DecodeBlock(data)
		part, perr := decodeBlockRange(nil, data, lo, hi)
		if openErr != nil && (err == nil || perr == nil) {
			t.Fatalf("block does not open (%v) and decodes: whole err %v, range err %v", openErr, err, perr)
		}
		if err == nil {
			if n, nerr := BlockRecords(data); nerr != nil || n != len(all) {
				t.Fatalf("BlockRecords = %d, %v; decoded %d", n, nerr, len(all))
			}
			hi = max(0, min(hi, len(all)))
			lo = min(max(lo, 0), hi)
			if perr != nil || !slices.Equal(part, all[lo:hi]) {
				t.Fatalf("range [%d,%d) = %q, %v; want %q", lo, hi, part, perr, all[lo:hi])
			}
		}
		var b Batch
		for _, need := range masks {
			berr := b.decode(data, lo, hi, need)
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

// appendOracle is Append as it was before Seal and Install: the lines join
// the file's tail, the shortest prefix of the tail reaching a block is
// sealed off for as long as the tail holds one, and the tail then moves into
// an array of its own.
func (fs *FS) appendOracle(path string, lines ...string) {
	var n int64
	for _, l := range lines {
		n += int64(len(l)) + 1
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		f = &file{}
		fs.files[path] = f
		fs.insertPath(path)
	}
	f.pending = append(f.pending, lines...)
	f.pendingBytes += int(n)
	f.lines += len(lines)
	f.bytes += n
	sealed := 0
	for f.pendingBytes >= fs.opts.BlockSize {
		take, taken := 0, 0
		for _, l := range f.pending[sealed:] {
			taken += len(l) + 1
			take++
			if taken >= fs.opts.BlockSize {
				break
			}
		}
		data, rawLen := encodeBlockStats(f.pending[sealed:sealed+take], fs.opts.Compress)
		b := &block{path: path, idx: len(f.blocks), records: take, logical: int64(taken), raw: rawLen, data: data}
		f.blocks = append(f.blocks, b)
		sealed += take
		f.pendingBytes -= taken
		fs.rawPayload += int64(rawLen)
		fs.storedPayload += int64(len(data))
		fs.residentBlocks++
		fs.residentBytes += int64(len(data))
		fs.residentQ = append(fs.residentQ, b)
	}
	if sealed > 0 {
		f.pending = append([]string(nil), f.pending[sealed:]...)
	}
	fs.enforceBudget()
	if fs.residentBytes > fs.maxResident {
		fs.maxResident = fs.residentBytes
	}
	fs.bytesWritten.Add(n)
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

// FuzzSealMatchesAppend holds Install of what Seal made, and Append, which
// is built on them, to Append as it was (appendOracle): over arbitrary lines
// cut into batches — empty ones, single lines, many blocks' worth — that go
// to two files in turn, so a batch meets a tail the one before left, at any
// block size, with and without compression and a spill budget, both must
// leave the store exactly as the oracle does. A batch's lines are cleared
// once written: a store that kept the caller's array would show it.
func FuzzSealMatchesAppend(f *testing.F) {
	f.Add("a\tb\nc\nd\te\tf\n\ng", uint64(0b1011_0110), uint16(8), true, uint16(16))
	f.Add(strings.Repeat("station-7\t21\tsunny\n", 40), uint64(0x0123_4567_89ab_cdef), uint16(64), true, uint16(100))
	f.Add(strings.Repeat("x\n", 90), uint64(7), uint16(3), false, uint16(0))
	f.Add("", uint64(0), uint16(1), false, uint16(1))
	f.Add("long line one\tof text\nshort\n"+strings.Repeat("w\t", 60), uint64(0xffff_0000_ffff), uint16(40), false, uint16(300))
	f.Fuzz(func(t *testing.T, raw string, cuts uint64, blockSize uint16, compress bool, budget uint16) {
		lines := strings.Split(raw, "\n")
		opts := Options{BlockSize: int(blockSize)%512 + 1, MemBudget: int64(budget) % 2048, Compress: compress}
		if opts.MemBudget > 0 {
			opts.SpillDir = t.TempDir()
		}
		installed, appended, oracle := NewWith(opts), NewWith(opts), NewWith(opts)
		defer func() {
			if err := errors.Join(installed.Close(), appended.Close(), oracle.Close()); err != nil {
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
			installed.Install(path, installed.Seal(batch), batch)
			appended.Append(path, batch...)
			oracle.appendOracle(path, batch...)
			clear(batch)
			lo = hi
		}
		sameStore(t, "Install(Seal)", installed, oracle)
		sameStore(t, "Append", appended, oracle)
	})
}
