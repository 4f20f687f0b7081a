package dfs

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"clusterbft/internal/digest"
)

// readLines reads the one file at path, as ReadTree reads a tree: a
// Reader's snapshot of it, charged to the read counter, decoded into one
// slice.
func readLines(fs *FS, path string) ([]string, error) {
	r, err := fs.OpenReader(path)
	if err != nil {
		return nil, err
	}
	return r.readAll()
}

func TestCreateAndExists(t *testing.T) {
	fs := NewWith(Options{})
	if fs.Exists("a") {
		t.Fatal("fresh FS should be empty")
	}
	fs.Append("a/b")
	if !fs.Exists("a/b") {
		t.Error("an append with no lines should create the file")
	}
	if fs.Exists("a") {
		t.Error("a directory prefix is not a file")
	}
}

func TestPathCleaning(t *testing.T) {
	fs := NewWith(Options{})
	fs.Append("/data/in/", "x")
	if !fs.Exists("data/in") {
		t.Error("leading/trailing slashes should normalize")
	}
	lines, err := readLines(fs, "/data/in")
	if err != nil || len(lines) != 1 {
		t.Errorf("readLines via alternate spelling: %v %v", lines, err)
	}
}

func TestAppendAndRead(t *testing.T) {
	fs := NewWith(Options{})
	fs.Append("f", "one", "two")
	fs.Append("f", "three")
	lines, err := readLines(fs, "f")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"one", "two", "three"}
	if len(lines) != 3 {
		t.Fatalf("len = %d", len(lines))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestReadReturnsCopy(t *testing.T) {
	fs := NewWith(Options{})
	fs.Append("f", "orig")
	lines, _ := readLines(fs, "f")
	lines[0] = "mutated"
	again, _ := readLines(fs, "f")
	if again[0] != "orig" {
		t.Error("readLines must return a copy")
	}
}

func TestReadMissing(t *testing.T) {
	fs := NewWith(Options{})
	var nf *ErrNotFound
	if _, err := readLines(fs, "ghost"); !errors.As(err, &nf) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
}

func TestDelete(t *testing.T) {
	fs := NewWith(Options{})
	fs.Append("f", "x")
	if err := fs.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("f") {
		t.Error("deleted file still exists")
	}
	if err := fs.Delete("f"); err == nil {
		t.Error("deleting missing file should error")
	}
}

func TestDeleteTree(t *testing.T) {
	fs := NewWith(Options{})
	fs.Append("out/part-00000", "a")
	fs.Append("out/part-00001", "b")
	fs.Append("outlier", "c")
	if n := fs.DeleteTree("out"); n != 2 {
		t.Errorf("DeleteTree removed %d, want 2", n)
	}
	if !fs.Exists("outlier") {
		t.Error("DeleteTree must not remove sibling with shared name prefix")
	}
}

func TestListPrefixBoundary(t *testing.T) {
	fs := NewWith(Options{})
	fs.Append("job/a", "1")
	fs.Append("job/b", "2")
	fs.Append("jobx", "3")
	got := fs.List("job")
	if len(got) != 2 || got[0] != "job/a" || got[1] != "job/b" {
		t.Errorf("List(job) = %v", got)
	}
	if n := len(fs.List("")); n != 3 {
		t.Errorf("List(\"\") found %d files", n)
	}
}

func TestSizeAccounting(t *testing.T) {
	fs := NewWith(Options{})
	fs.Append("f", "abc", "de") // 4 + 3 bytes with newlines
	sz, err := fs.Size("f")
	if err != nil || sz != 7 {
		t.Errorf("Size = %d, %v; want 7", sz, err)
	}
	if _, err := fs.Size("missing"); err == nil {
		t.Error("Size of missing file should error")
	}
}

func TestTreeSize(t *testing.T) {
	fs := NewWith(Options{})
	fs.Append("d/a", "xx") // 3
	fs.Append("d/b", "y")  // 2
	fs.Append("e", "zzzz") // 5
	if got := fs.TreeSize("d"); got != 5 {
		t.Errorf("TreeSize(d) = %d, want 5", got)
	}
	if got := fs.TreeSize(""); got != 10 {
		t.Errorf("TreeSize(\"\") = %d, want 10", got)
	}
}

func TestLineCount(t *testing.T) {
	fs := NewWith(Options{})
	fs.Append("f", "a", "b", "c")
	r, err := fs.OpenReader("f")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRecords() != 3 {
		t.Errorf("NumRecords = %d, want 3", r.NumRecords())
	}
	if _, err := fs.OpenReader("nope"); err == nil {
		t.Error("opening a missing file should error")
	}
}

func TestReadTreeOrder(t *testing.T) {
	fs := NewWith(Options{})
	fs.Append("out/part-00001", "second")
	fs.Append("out/part-00000", "first")
	lines, err := fs.ReadTree("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[0] != "first" || lines[1] != "second" {
		t.Errorf("ReadTree = %v; want sorted part order", lines)
	}
}

func TestReadTreeMissing(t *testing.T) {
	fs := NewWith(Options{})
	if _, err := fs.ReadTree("none"); err == nil {
		t.Error("ReadTree on empty prefix should error")
	}
}

// TestOpenOutputChargesNothing: a reader OpenOutput opens over a part-file
// tree serves every part's lines in path order — blocks, spilled or
// resident, and tails — through ReadRange, Lines and LinesSum alike, and
// charges the read counter nothing; a dir holding nothing reads as empty.
func TestOpenOutputChargesNothing(t *testing.T) {
	fs := NewWith(Options{BlockSize: 48, MemBudget: 96, SpillDir: t.TempDir(), Compress: true})
	defer fs.Close()
	var want []string
	for b := range 3 {
		var lines []string
		for i := range 10*b + 3 {
			lines = append(lines, fmt.Sprintf("b%d-row-%02d\t%d", b, i, i*i))
		}
		fs.Append(fmt.Sprintf("d/part-%d", b), lines...)
		want = append(want, lines...)
	}
	fs.Append("d!", "not under d")
	if fs.SpilledBlocks() == 0 || fs.ResidentBlocks() == 0 {
		t.Fatal("want blocks both spilled and resident")
	}
	read := fs.BytesRead()

	r := fs.OpenOutput("d")
	if got := r.ReadRange(0, r.NumRecords()); !slices.Equal(got, want) {
		t.Errorf("ReadRange: %d lines %q, want %d", len(got), got, len(want))
	}
	if got := slices.Collect(r.Lines); !slices.Equal(got, want) {
		t.Errorf("Lines: %d lines %q, want %d", len(got), got, len(want))
	}
	if got, w := r.LinesSum(), digest.OfLines(want); got != w {
		t.Errorf("LinesSum: %x, digest.OfLines: %x", got, w)
	}
	if n := fs.OpenOutput("ghost").NumRecords(); n != 0 {
		t.Errorf("a dir holding nothing reads %d records", n)
	}
	if fs.BytesRead() != read {
		t.Errorf("%d bytes were charged as read", fs.BytesRead()-read)
	}
}

func TestCounters(t *testing.T) {
	fs := NewWith(Options{})
	fs.Append("f", "abcd") // 5 bytes
	if fs.BytesWritten() != 5 {
		t.Errorf("BytesWritten = %d", fs.BytesWritten())
	}
	readLines(fs, "f")
	if fs.BytesRead() != 5 {
		t.Errorf("BytesRead = %d", fs.BytesRead())
	}
	fs.ResetCounters()
	if fs.BytesWritten() != 0 || fs.BytesRead() != 0 {
		t.Error("ResetCounters did not zero counters")
	}
	if !fs.Exists("f") {
		t.Error("ResetCounters must not delete files")
	}
}

func TestConcurrentAppends(t *testing.T) {
	fs := NewWith(Options{})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				fs.Append(fmt.Sprintf("w%d", w), "line")
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for w := 0; w < workers; w++ {
		r, err := fs.OpenReader(fmt.Sprintf("w%d", w))
		if err != nil {
			t.Fatal(err)
		}
		total += r.NumRecords()
	}
	if total != workers*per {
		t.Errorf("total lines = %d, want %d", total, workers*per)
	}
}

func TestSizeMatchesBytesWrittenProperty(t *testing.T) {
	f := func(lines []string) bool {
		fs := NewWith(Options{})
		sanitized := make([]string, len(lines))
		copy(sanitized, lines)
		fs.Append("f", sanitized...)
		if len(sanitized) == 0 {
			return fs.BytesWritten() == 0
		}
		sz, err := fs.Size("f")
		return err == nil && sz == fs.BytesWritten()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReadTreeAllocs pins what reading a three-part tree costs: the
// snapshot of its files, the one slice of all their lines, the two arrays
// of the block shape every block is walked into, and a string for each
// sealed block's lines. Tails are handed out as cut from the one string
// they are held in, and nothing is read into a slice of its own and then
// copied.
func TestReadTreeAllocs(t *testing.T) {
	fs := NewWith(Options{BlockSize: 64})
	var want []string
	for p := range 3 {
		lines := make([]string, 13) // two blocks of 6 and a tail
		for i := range lines {
			lines[i] = fmt.Sprintf("part%d\trow%02d", p, i)
		}
		installPart(fs, fmt.Sprintf("out/part-%05d", p), lines)
		want = append(want, lines...)
	}
	blocks := 0
	for _, f := range fs.files {
		blocks += len(f.blocks)
		if len(f.blocks) == 0 || f.tail.len() == 0 {
			t.Fatalf("a part of %d blocks and %d tail lines, want both", len(f.blocks), f.tail.len())
		}
	}
	got, err := fs.ReadTree("out")
	if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ReadTree = %q, %v; want %q", got, err, want)
	}
	if cap(got) != len(want) {
		t.Fatalf("ReadTree's slice holds %d lines, want exactly %d", cap(got), len(want))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := fs.ReadTree("out"); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(4 + blocks); allocs > limit {
		t.Fatalf("ReadTree of 3 parts and %d sealed blocks = %v allocations, want <= %v", blocks, allocs, limit)
	}
}

// TestOpenReaderAllocs: a reader's snapshot is counted under the lock and
// taken into one segment array, so opening one costs two allocations (the
// Reader and that array) whatever the number of blocks and files.
func TestOpenReaderAllocs(t *testing.T) {
	fs := NewWith(Options{BlockSize: 64})
	row := func(p, i int) string { return fmt.Sprintf("part%d\trow%02d", p, i) }
	for p := range 3 {
		var lines []string
		for i := range 13 { // two blocks of 6 and a tail
			lines = append(lines, row(p, i))
		}
		installPart(fs, fmt.Sprintf("out/part-%05d", p), lines)
	}
	for i := range 37 { // a block a line
		fs.Append("in", row(9, i))
	}
	if f := fs.files["in"]; len(f.blocks) != 37 || f.tail.len() != 0 {
		t.Fatalf("in holds %d blocks and %d tail lines, want 37 and none", len(f.blocks), f.tail.len())
	}
	if f := fs.files["out/part-00000"]; len(f.blocks) != 2 || f.tail.len() != 1 {
		t.Fatalf("a part holds %d blocks and %d tail lines, want 2 and 1", len(f.blocks), f.tail.len())
	}
	for name, open := range map[string]func() (*Reader, error){
		"OpenReader":     func() (*Reader, error) { return fs.OpenReader("in") },
		"OpenTreeReader": func() (*Reader, error) { return fs.OpenTreeReader("out") },
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := open(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s = %v allocations, want <= 2", name, allocs)
		}
	}
}
