package mapred

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"clusterbft/internal/dfs"
)

// storeFields are the FS fields that hold what a store is: every file's
// blocks (bytes, idx, records, spill offsets) and tail, the path index, the
// eviction queue in order, and the block counters.
var storeFields = []string{"files", "paths", "residentQ", "residentBlocks", "residentBytes", "maxResident",
	"spilledBlocks", "spilledBytes", "rawPayload", "storedPayload", "spillOff"}

// storeField reads the unexported field name of fs.
func storeField(fs *dfs.FS, name string) any {
	f := reflect.ValueOf(fs).Elem().FieldByName(name)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}

// TestSealedOutputMatchesAppend: output sealed in the task bodies and
// installed by their commits leaves the store exactly as Appending each
// committed part's lines, in commit order, to a new one does — block bytes,
// idx and records, tails, eviction order, the spill file and every counter
// — for a map-only job over a compressed store that spills and a join over
// a resident one; with no write hook, one that changes nothing and one
// that changes every part it is given.
func TestSealedOutputMatchesAppend(t *testing.T) {
	type input struct {
		path  string
		lines []string
	}
	flights := make([]string, 6000)
	for i := range flights {
		h := uint32(i+1) * 2654435761 // enough entropy that flate leaves a quarter of it to spill
		flights[i] = fmt.Sprintf("%d\t%d\tA%03d\tB%03d\t%d", 1990+h%31, 1+h>>5%12, h>>9%400, h>>13%400, int(h>>17%2000)-1000)
	}
	cases := []struct {
		name    string
		script  string
		inputs  []input
		storage func(dir string) dfs.Options
	}{
		{"map-only, spilling", `
fl = LOAD 'in/fl' AS (year:int, month:int, origin, dest, delay:int);
late = FILTER fl BY delay > 0;
STORE late INTO 'out/late';`,
			[]input{{"in/fl", flights}},
			func(dir string) dfs.Options { // etl_spill's
				n := linesBytes(flights)
				return dfs.Options{BlockSize: int(n / 64), MemBudget: n / 4, SpillDir: dir, Compress: true}
			}},
		{"join, resident", reuseScripts["join"],
			[]input{{"in/l", geomEdges(600)}, {"in/r", geomEdges(500)}},
			func(string) dfs.Options { return dfs.Options{BlockSize: 2 << 10} }},
	}
	type part struct {
		path  string
		lines []string
	}
	hooks := []struct {
		name string
		hook func(path string, lines []string) []string
	}{
		{"a hook that changes nothing", func(_ string, lines []string) []string { return lines }},
		{"no hook", nil},
		{"a hook that changes every part", func(path string, lines []string) []string {
			return append(slices.Clone(lines), path+"\tmangled")
		}},
	}
	open := func(c int) (*dfs.FS, string) {
		dir := t.TempDir()
		fs := dfs.NewWith(cases[c].storage(dir))
		t.Cleanup(func() { fs.Close() })
		for _, in := range cases[c].inputs {
			fs.Append(in.path, in.lines...)
		}
		return fs, dir
	}
	spill := func(dir string) []byte {
		files, _ := filepath.Glob(filepath.Join(dir, "clusterbft-spill-*.blk"))
		if len(files) == 0 {
			return nil
		}
		b, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for c, tc := range cases {
		var commits []part // every part's lines in commit order, as the first hook saw them
		for _, h := range hooks {
			who := tc.name + ", " + h.name
			fs, dir := open(c)
			var log []part
			runJobs(t, fs, nil, plan(t, tc.script), compile(t, tc.script, CompileOptions{NumReduces: 3}), func(e *Engine) {
				e.Cost.SplitRecords = 500
				if h.hook != nil {
					fs.WriteHook = func(path string, lines []string) []string {
						log = append(log, part{path, slices.Clone(lines)})
						return h.hook(path, lines)
					}
				}
			})
			if commits == nil {
				commits = log
			}
			if len(commits) < 3 || h.hook != nil && !reflect.DeepEqual(log, commits) {
				t.Fatalf("%s: %d parts committed, or not the parts, or not in the order, of the first run", who, len(log))
			}
			replay, rdir := open(c)
			replay.WriteHook = h.hook
			for _, p := range commits {
				replay.Append(p.path, p.lines...)
			}
			for _, name := range storeFields {
				if got, want := storeField(fs, name), storeField(replay, name); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the store's %s differs from the replay's", who, name)
				}
			}
			for _, m := range []struct {
				name      string
				got, want int64
			}{
				{"CompressedRatio", fs.CompressedRatio(), replay.CompressedRatio()},
				{"SpilledBlocks", fs.SpilledBlocks(), replay.SpilledBlocks()},
				{"SpillBytes", fs.SpillBytes(), replay.SpillBytes()},
				{"MaxResidentBytes", fs.MaxResidentBytes(), replay.MaxResidentBytes()},
				{"BytesWritten", fs.BytesWritten(), replay.BytesWritten()},
			} {
				if m.got != m.want {
					t.Errorf("%s: %s = %d, the replay's %d", who, m.name, m.got, m.want)
				}
			}
			if got, want := spill(dir), spill(rdir); !slices.Equal(got, want) {
				t.Errorf("%s: spill file of %d bytes, the replay's %d", who, len(got), len(want))
			}
			// Both stores sealed output into blocks, and the first spilled it.
			if n := fs.TreeSize("out"); n < int64(3*cases[c].storage("").BlockSize) {
				t.Fatalf("%s: %d bytes of output, too few to seal", who, n)
			}
			if c == 0 && (fs.SpilledBlocks() == 0 || fs.CompressedRatio() >= 100) {
				t.Fatalf("%s: %d blocks spilled at %d%% stored/raw", who, fs.SpilledBlocks(), fs.CompressedRatio())
			}
		}
	}
}

// TestRequizDoesNotSeal: a quiz's commit is dropped, so its body seals
// nothing and nothing reaches the store — a quiz of every task of a
// map-only job over a compressed store leaves every file's blocks, the
// compression ratio and the bytes written as a run with no quiz has them.
func TestRequizDoesNotSeal(t *testing.T) {
	src := `
fl = LOAD 'in/fl' AS (user:int, follower:int);
f = FILTER fl BY follower != 0;
STORE f INTO 'out/f';`
	run := func(quiz bool) *dfs.FS {
		fs := dfs.NewWith(dfs.Options{BlockSize: 1 << 10, Compress: true})
		fs.Append("in/fl", geomEdges(3000)...)
		jobs := compile(t, src, CompileOptions{})
		jobs[0].SID, jobs[0].Audit = "s0", true
		tr := runJobs(t, fs, nil, plan(t, src), jobs, func(e *Engine) { e.Cost.SplitRecords = 1000 })
		if quiz {
			requizAll(t, tr.eng, jobs)
		}
		return fs
	}
	want, fs := run(false), run(true)
	if n := want.TreeSize("out/f"); n < 3<<10 {
		t.Fatalf("%d bytes of output, too few to seal", n)
	}
	for _, name := range storeFields {
		if !reflect.DeepEqual(storeField(fs, name), storeField(want, name)) {
			t.Errorf("a quiz changed the store's %s", name)
		}
	}
	if fs.CompressedRatio() != want.CompressedRatio() || fs.BytesWritten() != want.BytesWritten() {
		t.Errorf("after the quiz %d%% stored/raw and %d bytes written, without it %d%% and %d",
			fs.CompressedRatio(), fs.BytesWritten(), want.CompressedRatio(), want.BytesWritten())
	}
}
