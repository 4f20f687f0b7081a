package dfs

import (
	"slices"
	"strings"
	"testing"
)

// FuzzBlockRoundTrip feeds arbitrary record content — including raw
// tabs, newlines-as-escapes, backslashes and the tuple codec's escape
// sequences — through the complete at-rest pipeline: columnar encode,
// optional flate compression, seal into a budgeted FS, spill to disk,
// load back, decompress, decode. The reconstructed record lines must be
// byte-identical to the originals at every stage.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add("plain\tfields\there", true)
	f.Add("esc\\taped\\nvalue\\\\", false)
	f.Add("", true)
	f.Add("\t\t\t", true)
	f.Add("a\nb\nc\td", false)
	f.Add("unicode → ünïcode\tmore", true)
	f.Add(strings.Repeat("wide\tblock\t", 400), true)
	f.Fuzz(func(t *testing.T, raw string, compress bool) {
		// Interpret the fuzz input as a small file: newline-separated
		// record lines, each holding arbitrary (possibly tab/backslash
		// riddled) content.
		lines := strings.Split(raw, "\n")

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
		// A range decode returns the same records a whole decode would;
		// the range is derived from the input so the corpus moves it.
		lo := len(raw) % (len(lines) + 1)
		hi := lo + (len(raw)/7)%(len(lines)-lo+1)
		part, err := decodeBlockRange(nil, data, lo, hi)
		if err != nil || !slices.Equal(part, lines[lo:hi]) {
			t.Fatalf("range [%d,%d) = %q, %v; want %q", lo, hi, part, err, lines[lo:hi])
		}

		// Stage 2: the same records through a spilling FS — tiny blocks
		// and a tiny budget so sealing and spilling both trigger.
		fs := NewWith(Options{BlockSize: 64, MemBudget: 128, SpillDir: t.TempDir(), Compress: compress})
		defer fs.Close()
		for _, l := range lines {
			fs.Append("fuzz/f", l)
		}
		back, err := fs.ReadLines("fuzz/f")
		if err != nil {
			t.Fatalf("ReadLines: %v", err)
		}
		if len(back) != len(lines) {
			t.Fatalf("FS returned %d lines, want %d", len(back), len(lines))
		}
		for i := range lines {
			if back[i] != lines[i] {
				t.Fatalf("FS line %d: %q, want %q", i, back[i], lines[i])
			}
		}
		if err := fs.SpillErr(); err != nil {
			t.Fatalf("spill error: %v", err)
		}
	})
}

// FuzzDecodeBlockNoPanic hands the block decoder arbitrary bytes, as a
// corrupted spill file would: it must return records or an error, never
// panic or size an allocation from an unchecked length, and a range
// decode, as lines or as a batch of columns, must fail on exactly the
// inputs a whole decode fails on. A batch is served for exactly the
// ranges free of backslash and newline, and holds the values their lines
// are made of.
func FuzzDecodeBlockNoPanic(f *testing.F) {
	f.Add(EncodeBlock([]string{"a\tb", "c", "\t\t"}, false), 1, 2)
	f.Add(EncodeBlock([]string{strings.Repeat("wide\tblock\t", 40)}, true), 0, 1)
	f.Add([]byte{blockVersion, 0, 1, 1, 1, 0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 0, 1)
	f.Add([]byte{blockVersion, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 1, 0}, 0, 9)
	f.Add([]byte{blockVersion, blockFlagFlate, 3, 0xff, 0xff}, 0, 0)
	f.Add(EncodeBlock([]string{"a", "b"}, false), 1, -28)
	f.Add(EncodeBlock([]string{"", "x\\\ty", "", "p\tq\tr"}, false), 0, 4)
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int) {
		all, err := DecodeBlock(data)
		part, perr := decodeBlockRange(nil, data, lo, hi)
		if (err == nil) != (perr == nil) {
			t.Fatalf("whole decode err %v, range [%d,%d) err %v", err, lo, hi, perr)
		}
		var b Batch
		ok, berr := b.decode(data, lo, hi, nil)
		if (err == nil) != (berr == nil) {
			t.Fatalf("whole decode err %v, batch [%d,%d) err %v", err, lo, hi, berr)
		}
		if err != nil {
			return
		}
		if n, nerr := BlockRecords(data); nerr != nil || n != len(all) {
			t.Fatalf("BlockRecords = %d, %v; decoded %d", n, nerr, len(all))
		}
		hi = max(0, min(hi, len(all)))
		lo = min(max(lo, 0), hi)
		if !slices.Equal(part, all[lo:hi]) {
			t.Fatalf("range [%d,%d) = %q, want %q", lo, hi, part, all[lo:hi])
		}
		if plain := !strings.ContainsAny(strings.Join(part, ""), "\\\n"); ok != plain {
			t.Fatalf("batch [%d,%d) served=%v over %q", lo, hi, ok, part)
		}
		// Joined by tabs the values are the line, whatever bytes a hostile
		// block put in them.
		if got := batchLines(&b, nil); ok && !slices.Equal(got, part) {
			t.Fatalf("batch [%d,%d) = %q, want %q", lo, hi, got, part)
		}
	})
}
