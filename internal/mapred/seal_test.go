package mapred

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/obs"
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
// installed by their commits leaves the store exactly as sealing each
// committed part's lines from one buffer (FS.SealBuffer) and installing
// them, one part after another in commit order, into a new one does — its
// inputs Appended as the run's were — block bytes,
// idx and records, tails, eviction order, the spill file and every counter
// — for a map-only job over a compressed store that spills and a join over
// a resident one; with no task fault, a Tamper that changes nothing and
// one that changes every part it is given.
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
	tampers := []struct {
		name   string
		tamper func(path string, lines []string) []string
	}{
		{"a Tamper that changes nothing", func(_ string, lines []string) []string { return lines }},
		{"no task fault", nil},
		{"a Tamper that changes every part", func(path string, lines []string) []string {
			return append(lines, path+"\tmangled")
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
		var stored map[string][]string // every part's lines as the first run's tasks stored them
		for _, h := range tampers {
			who := tc.name + ", " + h.name
			fs, dir := open(c)
			var mu sync.Mutex
			lines := map[string][]string{}
			tracer := obs.NewTracer(0)
			tr := runJobs(t, fs, nil, plan(t, tc.script), compile(t, tc.script, CompileOptions{NumReduces: 3}), func(e *Engine) {
				e.Cost.SplitRecords = 500
				e.Trace = tracer
				if h.tamper != nil {
					e.TaskHook = func(_ cluster.NodeID, task *Task) TaskFault {
						path := joinPath(task.Job.Spec.Output, partFileName(task.Kind, task.InputIdx, task.Index))
						return TaskFault{Tamper: func(out []string) []string {
							out = h.tamper(path, out)
							mu.Lock()
							lines[path] = slices.Clone(out)
							mu.Unlock()
							return out
						}}
					}
				}
			})
			if stored == nil {
				stored = lines
			} else if h.tamper == nil {
				lines = stored
			}
			// The parts in commit order: a task span is recorded as its
			// attempt commits.
			var commits []part
			for _, sp := range tracer.Spans() {
				if sp.Cat != "task" {
					continue
				}
				js := tr.eng.Job(sp.Attrs[0].V) // the span's job
				task := js.tasks[slices.IndexFunc(js.tasks, func(t *Task) bool { return t.id == sp.Name })]
				if task.Kind == MapTask && js.Spec.Reduce != nil {
					continue // its output is its partitions
				}
				path := joinPath(js.Spec.Output, partFileName(task.Kind, task.InputIdx, task.Index))
				commits = append(commits, part{path, lines[path]})
			}
			if len(commits) < 3 || len(commits) != len(lines) {
				t.Fatalf("%s: %d parts committed, %d produced", who, len(commits), len(lines))
			}
			replay, rdir := open(c)
			for _, p := range commits {
				installPart(replay, p.path, p.lines)
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

// TestTaskHookTamperIsWhatIsStored: a task whose TaskFault.Tamper changes
// its part reports and stores what the Tamper returned — its digest.AuditTaskPoint
// digest and its part file are of the tampered lines — and the job's
// digest.AuditIOOutPoint and digest.CkptPoint digests are both digest.OfLines of the
// output as stored, part after part in name order, read over a store that
// spills, so most of it from the spill file, with the read counter left
// alone.
func TestTaskHookTamperIsWhatIsStored(t *testing.T) {
	src := `
fl = LOAD 'in/fl' AS (user:int, follower:int);
f = FILTER fl BY follower != 0;
STORE f INTO 'out/f';`
	const victim = "out/f/part-m-0-00001"
	fs := dfs.NewWith(dfs.Options{BlockSize: 1 << 10, MemBudget: 2 << 10, SpillDir: t.TempDir(), Compress: true})
	t.Cleanup(func() { fs.Close() })
	fs.Append("in/fl", geomEdges(3000)...)
	jobs := compile(t, src, CompileOptions{})
	jobs[0].SID, jobs[0].Audit, jobs[0].Ckpt = "s0", true, true
	var mu sync.Mutex
	stored := map[string][]string{} // each part as its task stored it
	var produced []string           // the victim's lines as its task produced them
	tr := runJobs(t, fs, nil, plan(t, src), jobs, func(e *Engine) {
		e.Cost.SplitRecords = 1000
		e.TaskHook = func(_ cluster.NodeID, task *Task) TaskFault {
			path := joinPath(task.Job.Spec.Output, partFileName(task.Kind, task.InputIdx, task.Index))
			return TaskFault{Tamper: func(lines []string) []string {
				mu.Lock()
				defer mu.Unlock()
				if path == victim {
					produced = slices.Clone(lines)
					lines = append(lines, "mangled")
				}
				stored[path] = slices.Clone(lines)
				return lines
			}}
		}
	})
	if tr.eng.Fault != nil {
		t.Fatal(tr.eng.Fault)
	}
	if len(stored) != 3 || stored[victim] == nil || fs.SpilledBlocks() == 0 {
		t.Fatalf("parts %v, %d blocks spilled: want three, %s among them, over a store that spills",
			slices.Sorted(maps.Keys(stored)), fs.SpilledBlocks(), victim)
	}
	var want []string
	for _, p := range slices.Sorted(maps.Keys(stored)) {
		want = append(want, stored[p]...)
	}
	if n := linesBytes(want); n < 8<<10 {
		t.Fatalf("%d bytes of output, too few to seal and spill", n)
	}

	if got, err := fs.ReadTree(victim); err != nil || !slices.Equal(got, append(slices.Clone(produced), "mangled")) {
		t.Errorf("%s holds %d lines (%v), the Tamper returned %d", victim, len(got), err, len(produced)+1)
	}
	read := fs.BytesRead()
	if in, _ := fs.Size("in/fl"); read != in+fs.TreeSize(victim) {
		t.Errorf("%d bytes charged as read: want the job's input's and %s's, read here", read, victim)
	}
	tampered, honest := digest.OfLines(stored[victim]), digest.OfLines(produced)
	sums := map[int]digest.Report{}
	for _, r := range tr.reports {
		switch r.Key.Point {
		case digest.AuditIOOutPoint, digest.CkptPoint:
			sums[r.Key.Point] = r
		case digest.AuditTaskPoint:
			if r.Sum == honest {
				t.Errorf("%s: the task reported its output before the Tamper", r.Key.Task)
			}
			if r.Sum == tampered {
				sums[digest.AuditTaskPoint] = r
			}
		}
	}
	if _, ok := sums[digest.AuditTaskPoint]; !ok {
		t.Error("no task reported the output its Tamper returned")
	}
	for _, point := range []int{digest.AuditIOOutPoint, digest.CkptPoint} {
		r, ok := sums[point]
		if !ok || r.Sum != digest.OfLines(want) || r.Records != int64(len(want)) {
			t.Errorf("point %d: report %v (%v), want %d records digested as stored", point, r, ok, len(want))
		}
	}
}
