package dfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"clusterbft/internal/workload"
)

// cycling returns n two-column lines whose first column cycles through k
// distinct values and whose second holds one.
func cycling(n, k int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("v%03d\tx", i%k)
	}
	return lines
}

// readsBack fails t unless every read of the block data returns lines:
// the whole decode, ranges as lines, and ranges as batches under every
// mask, pruned ones included. A short block is read over every range.
func readsBack(t *testing.T, who string, data []byte, lines []string) {
	t.Helper()
	if got, err := DecodeBlock(data); err != nil || !slices.Equal(got, lines) {
		t.Fatalf("%s: DecodeBlock = %d lines, %v; want the %d sealed", who, len(got), err, len(lines))
	}
	n := len(lines)
	ranges := [][2]int{{0, n}, {0, 1}, {1, 2}, {n / 3, 2 * n / 3}, {n - 1, n}, {n, n}}
	if n <= 40 {
		ranges = nil
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				ranges = append(ranges, [2]int{lo, hi})
			}
		}
	}
	var b Batch
	for _, r := range ranges {
		lo, hi := max(0, min(r[0], n)), max(0, min(r[1], n))
		if got, err := decodeBlockRange(nil, data, lo, hi); err != nil || !slices.Equal(got, lines[lo:hi]) {
			t.Fatalf("%s: lines [%d,%d) = %q, %v", who, lo, hi, got, err)
		}
		for _, need := range [][]bool{nil, {}, {true}, {false, true}, {false, false, true}} {
			if err := b.decode(data, lo, hi, 0, need); err != nil {
				t.Fatalf("%s: batch [%d,%d) need %v: %v", who, lo, hi, need, err)
			}
			readsAs(t, fmt.Sprintf("%s: batch [%d,%d) need %v", who, lo, hi, need), &b, lines[lo:hi], need)
		}
	}
}

// TestDictionaryCodecChoice: a compressed block is dictionary-coded where
// every column holds at most 256 distinct values and the code is smaller
// than raw, and deflated (or stored raw) otherwise; whichever codec a block
// takes, it is the reference encoder's, byte for byte, and every read
// returns the lines it was sealed from. Three of the blocks outgrow what
// the encoder keeps on its stack: codes, distinct values and columns.
func TestDictionaryCodecChoice(t *testing.T) {
	wide, varied, many := make([]string, 40), make([]string, 1000), make([]string, 30)
	for i := range wide {
		wide[i] = fmt.Sprintf("%d\t%d\t%d\t%d", i%2, i%3, i%4, i%5)
	}
	for i := range varied {
		varied[i] = fmt.Sprintf("%d\t%d\t%d", i%250, i%251, i%253)
	}
	for i := range many {
		many[i] = strings.Repeat(fmt.Sprintf("%d\t", i%3), 19) + "end"
	}
	for _, c := range []struct {
		name  string
		lines []string
		flags byte
	}{
		{"256 distinct values", cycling(1024, 256), blockFlagDict},
		{"257 distinct values", cycling(1028, 257), blockFlagFlate},
		{"ragged rows and empty lines", slices.Repeat(blockShapes()["ragged"], 4), blockFlagDict},
		{"one column", slices.Repeat([]string{"a", "", "bb", "a"}, 8), blockFlagDict},
		{"four columns", wide, blockFlagDict},
		{"more values than codes kept", cycling(4500, 200), blockFlagDict},
		{"more distinct values than entries kept", varied, blockFlagDict},
		{"more columns than kept", many, blockFlagDict},
		{"flagged columns", slices.Repeat([]string{"a\tx\\y\t1", "b\tplain\t2", "c\tk\nl\t3", "d\tplain\t4"}, 10), blockFlagDict},
		{"long values", slices.Repeat([]string{fmt.Sprintf("%0300d\tb", 7), fmt.Sprintf("a\t%0200d", 9)}, 5), blockFlagDict},
		// A dictionary costs a record two bytes a column more than raw.
		{"one record", []string{"a\tbb\tccc"}, 0},
	} {
		data := EncodeBlock(c.lines, true)
		if data[1] != c.flags {
			t.Errorf("%s: flags %#x, want %#x", c.name, data[1], c.flags)
		}
		if want, _ := referenceEncodeBlock(c.lines, true); !bytes.Equal(data, want) {
			t.Errorf("%s: the block is not the reference encoder's", c.name)
		}
		readsBack(t, c.name, data, c.lines)
	}

	// What the encoder stores raw reads back dictionary-coded as well.
	one := payloadParts{
		maxCols: 3, minCols: 3,
		regions: [][]byte{dictRegion([]string{"a"}, 0), dictRegion([]string{"bb"}, 0), dictRegion([]string{"ccc"}, 0)},
		facts:   []uint64{1, 1, 1},
		lens:    []uint64{8},
	}
	readsBack(t, "one coded record", one.coded(1), []string{"a\tbb\tccc"})
}

// TestDictionaryBlocksThroughTheStore seals dictionary-coded and deflated
// blocks side by side in a spilling store and reads them back every way a
// consumer does: whole files, the tree, ranges, and column batches under
// pruned masks, segment by segment.
func TestDictionaryBlocksThroughTheStore(t *testing.T) {
	fs := NewWith(Options{BlockSize: 1 << 10, MemBudget: 2 << 10, SpillDir: t.TempDir(), Compress: true})
	defer fs.Close()
	var all []string
	for p, lines := range [][]string{
		slices.Repeat([]string{"2008\t1\tATL\tORD\t-3", "2008\t2\tSFO\tORD\t7", "2008\t1\tORD\tATL\t0", "", "2008\t3\tATL\tSFO\tx\\y"}, 60),
		cycling(600, 300),
	} {
		fs.Append(fmt.Sprintf("out/part-%d", p), lines...)
		all = append(all, lines...)
	}
	flags := map[byte]int{}
	for _, f := range []string{"out/part-0", "out/part-1"} {
		for _, b := range fs.files[f].blocks {
			data, err := fs.blockData(b)
			if err != nil {
				t.Fatal(err)
			}
			flags[data[1]]++
		}
	}
	if flags[blockFlagDict] == 0 || flags[blockFlagFlate] == 0 || fs.SpilledBlocks() == 0 {
		t.Fatalf("blocks by flags %v, %d spilled: want coded and deflated blocks, spilled", flags, fs.SpilledBlocks())
	}
	if got, err := fs.ReadTree("out"); err != nil || !slices.Equal(got, all) {
		t.Fatalf("ReadTree = %d lines, %v; want the %d appended", len(got), err, len(all))
	}
	r, err := fs.OpenTreeReader("out")
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	for _, need := range [][]bool{nil, {}, {false, false, true}, {true, false, false, false, true}} {
		for at := 0; at < r.NumRecords(); {
			next := r.ReadColumns(&b, at, r.NumRecords(), need)
			readsAs(t, fmt.Sprintf("need %v [%d,%d)", need, at, next), &b, all[at:next], need)
			if !slices.Equal(r.ReadRange(at, next), all[at:next]) {
				t.Fatalf("ReadRange(%d,%d) differs", at, next)
			}
			at = next
		}
	}
}

// reflag returns data with its flags byte set to flags and its checksum
// made good again.
func reflag(data []byte, flags byte) []byte {
	n, w := binary.Uvarint(data[2:])
	return sealPayload(flags, n, data[2+w+4:])
}

// TestUnknownBlockFlagsFailEveryRead: a block whose checksum is good but
// whose flags name a bit no encoder sets, or both codecs at once, is not
// read as anything: every read of it fails, and through the store every
// read path fails with its *BlockError.
func TestUnknownBlockFlagsFailEveryRead(t *testing.T) {
	lines := slices.Repeat([]string{"a\tbb", "c\tdd"}, 8)
	for _, data := range [][]byte{EncodeBlock(lines, false), EncodeBlock(lines, true)} {
		for _, flags := range []byte{0x04, 0x05, blockFlagDict | blockFlagFlate, 0x80} {
			bad := reflag(data, flags)
			if _, _, err := header(bad); err == nil {
				t.Errorf("flags %#x: header counts the block", flags)
			}
			if _, err := DecodeBlock(bad); err == nil {
				t.Errorf("flags %#x: the block decodes", flags)
			}
			var b Batch
			if err := b.decode(bad, 0, 1, 0, []bool{true}); err == nil {
				t.Errorf("flags %#x: the block reads as a batch", flags)
			}
		}
	}

	fs := NewWith(Options{BlockSize: 64, Compress: true})
	fs.Append("out/part-0", lines...)
	blk := fs.files["out/part-0"].blocks[0]
	if blk.data[1] != blockFlagDict {
		t.Fatalf("flags %#x: want a coded block to re-flag", blk.data[1])
	}
	blk.data = reflag(blk.data, 0x04|blockFlagDict)
	failed := func(who string, err error) {
		t.Helper()
		var bad *BlockError
		if !errors.As(err, &bad) || bad.Path != "out/part-0" || bad.Block != 0 {
			t.Errorf("%s: err = %v; want the *BlockError of block 0 of out/part-0", who, err)
		}
	}
	_, err := readLines(fs, "out/part-0")
	failed("readLines", err)
	_, err = fs.ReadTree("out")
	failed("ReadTree", err)
	r, err := fs.OpenReader("out/part-0")
	if err != nil {
		t.Fatal(err)
	}
	panics := func(who string, read func()) {
		t.Helper()
		defer func() {
			err, _ := recover().(error)
			failed(who, err)
		}()
		read()
	}
	panics("ReadRange", func() { r.ReadRange(0, 1) })
	panics("ReadColumns", func() { r.ReadColumns(&Batch{}, 0, 1, []bool{true}) })
}

// BenchmarkAirlineBlock seals one block of airline rows, 1,172 of them as
// etl_spill's blocks hold, and reads it back as a warm Batch carrying every
// column and as lines: what each replica pays a block it writes or reads.
// Compressed, the block is dictionary-coded (its columns hold 2 to 120
// distinct values).
func BenchmarkAirlineBlock(b *testing.B) {
	lines := workload.Airline(1172, 40, 1)
	for _, compress := range []bool{false, true} {
		data := EncodeBlock(lines, compress)
		name := fmt.Sprintf("flags=%#x", data[1])
		b.Run(name+"/seal", func(b *testing.B) {
			for range b.N {
				EncodeBlock(lines, compress)
			}
		})
		b.Run(name+"/batch", func(b *testing.B) {
			var batch Batch
			for range b.N {
				if err := batch.decode(data, 0, len(lines), 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/lines", func(b *testing.B) {
			for range b.N {
				if _, err := decodeBlockRange(nil, data, 0, len(lines)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
