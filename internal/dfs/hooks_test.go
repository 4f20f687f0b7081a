package dfs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"clusterbft/internal/digest"
)

// hookLog installs recording Read/Write hooks on fs and returns the
// observation log they build: one entry per hook firing, capturing the
// path and the exact line stream the hook saw.
func hookLog(fs *FS) *[]string {
	log := &[]string{}
	fs.WriteHook = func(path string, lines []string) []string {
		*log = append(*log, "W "+path+" "+strings.Join(lines, "\x1f"))
		return lines
	}
	fs.ReadHook = func(path string, lines []string) []string {
		*log = append(*log, "R "+path+" "+strings.Join(lines, "\x1f"))
		return lines
	}
	return log
}

// TestHookEquivalenceBlockVsLegacy proves the chaos contract across
// storage configurations: fault-injection hooks observe byte-identical
// line streams whether the file sits in a single resident default-size
// block or is shredded into tiny compressed blocks that spill to disk.
// The same workload — creates, appends, single-file and tree reads,
// streaming reads — is replayed against both configurations and the two
// hook observation logs must match entry for entry.
func TestHookEquivalenceBlockVsLegacy(t *testing.T) {
	workload := func(fs *FS) {
		fs.Append("job/in")
		fs.Append("job/in", "alpha\t1", "beta\\t2", "gamma\\\\3")
		for i := 0; i < 40; i++ {
			fs.Append("job/in", fmt.Sprintf("row-%03d\t%d\tpayload-%d", i, i*i, i%7))
		}
		fs.Append("job/parts/part-0", "k1\t10", "k2\t20")
		fs.Append("job/parts/part-1", "k3\t30")
		if _, err := fs.ReadLines("job/in"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadTree("job/parts"); err != nil {
			t.Fatal(err)
		}
		// Streaming readers fall back to the materializing path when a
		// ReadHook is installed, so they must fire it identically too.
		r, err := fs.OpenReader("job/in")
		if err != nil {
			t.Fatal(err)
		}
		r.ReadRange(0, r.NumRecords())
		tr, err := fs.OpenTreeReader("job/parts")
		if err != nil {
			t.Fatal(err)
		}
		tr.ReadRange(0, tr.NumRecords())
	}

	legacy := NewWith(Options{})
	legacyLog := hookLog(legacy)
	workload(legacy)

	block := NewWith(Options{BlockSize: 48, MemBudget: 96, SpillDir: t.TempDir(), Compress: true})
	defer block.Close()
	blockLog := hookLog(block)
	workload(block)

	if block.SpilledBlocks() == 0 {
		t.Fatal("block-backed run never spilled; config not exercising the spill path")
	}
	if len(*legacyLog) != len(*blockLog) {
		t.Fatalf("hook firing counts differ: legacy %d, block %d", len(*legacyLog), len(*blockLog))
	}
	for i := range *legacyLog {
		if (*legacyLog)[i] != (*blockLog)[i] {
			t.Fatalf("hook observation %d diverged:\n  legacy %q\n  block  %q",
				i, (*legacyLog)[i], (*blockLog)[i])
		}
	}
}

// TestOpenSealedReadsNoFile: a reader over sealed batches serves the lines
// they were sealed from — blocks, spilled or resident, and tails — whether
// a file took them or not, through ReadRange, Lines and LinesSum alike, and
// reads no file to do it: the read counter stays where it was and a set
// ReadHook is never called.
func TestOpenSealedReadsNoFile(t *testing.T) {
	fs := NewWith(Options{BlockSize: 48, MemBudget: 96, SpillDir: t.TempDir(), Compress: true})
	defer fs.Close()
	var parts []Sealed
	var want []string
	for b := range 3 {
		var lines []string
		for i := range 10*b + 3 {
			lines = append(lines, fmt.Sprintf("b%d-row-%02d\t%d", b, i, i*i))
		}
		s := fs.Seal(lines)
		if b < 2 { // the last batch goes to no file
			fs.Install(fmt.Sprintf("d/part-%d", b), s)
		}
		parts = append(parts, s)
		want = append(want, lines...)
	}
	if fs.SpilledBlocks() == 0 {
		t.Fatal("nothing spilled; the reader is not reading the spill file")
	}
	hooked := 0
	fs.ReadHook = func(_ string, lines []string) []string {
		hooked++
		return nil
	}
	read := fs.BytesRead()

	r := fs.OpenSealed(parts)
	if got := r.ReadRange(0, r.NumRecords()); !slices.Equal(got, want) {
		t.Errorf("ReadRange: %d lines %q, want %d", len(got), got, len(want))
	}
	if got := slices.Collect(r.Lines); !slices.Equal(got, want) {
		t.Errorf("Lines: %d lines %q, want %d", len(got), got, len(want))
	}
	if got, w := r.LinesSum(), digest.OfLines(want); got != w {
		t.Errorf("LinesSum: %x, digest.OfLines: %x", got, w)
	}
	if hooked != 0 || fs.BytesRead() != read {
		t.Errorf("the ReadHook fired %d times and %d bytes were charged as read", hooked, fs.BytesRead()-read)
	}
}
