package dfs

import (
	"fmt"
	"strings"
	"testing"
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
		fs.Create("job/in")
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

	legacy := New()
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
