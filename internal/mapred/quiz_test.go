package mapred

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/pig"
)

// auditedRun compiles and executes a script with audit digests enabled on
// every job (as the controller does for quiz/deferred attempts) and
// returns the engine plus the primary's reports keyed for comparison.
func auditedRun(t *testing.T, script string, inputs map[string][]string, hook func(cluster.NodeID, *Task) TaskFault) (*Engine, []*JobSpec, map[digest.Key]digest.Sum) {
	t.Helper()
	fs := dfs.New()
	for path, lines := range inputs {
		fs.Append(path, lines...)
	}
	p, err := pig.Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Compile(p, CompileOptions{NumReduces: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(fs, cluster.New(4, 2), nil, DefaultCostModel())
	eng.TaskHook = hook
	primary := make(map[digest.Key]digest.Sum)
	eng.DigestSink = func(r digest.Report) {
		if r.Replica == 0 {
			primary[r.Key] = r.Sum
		}
	}
	for _, j := range jobs {
		j.SID = "s0"
		j.Audit = true
		for i := range j.Inputs {
			j.Inputs[i].AuditIn = true
		}
		if _, err := eng.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	return eng, jobs, primary
}

// requizAll re-executes every committed task of every job as a quiz and
// returns the quiz reports.
func requizAll(t *testing.T, eng *Engine, jobs []*JobSpec) []digest.Report {
	t.Helper()
	var quiz []digest.Report
	done := 0
	for _, j := range jobs {
		js := eng.Job(j.ID)
		if js == nil || !js.Done {
			t.Fatalf("job %s not done", j.ID)
		}
		for _, tid := range js.TaskIDs() {
			err := eng.Requiz(j.ID, tid, 1,
				func(r digest.Report) { quiz = append(quiz, r) },
				func() { done++ })
			if err != nil {
				t.Fatalf("requiz %s/%s: %v", j.ID, tid, err)
			}
		}
	}
	eng.Run() // drain the quiz completion events
	if int64(done) != eng.QuizTasks {
		t.Fatalf("done callbacks %d != QuizTasks %d", done, eng.QuizTasks)
	}
	return quiz
}

// TestRequizHonestMatches: re-executing an honest primary's tasks on the
// trusted tier reproduces its digests exactly — every quiz report's key
// was filed by the primary with an identical sum, and quiz evidence is
// stamped with the quiz replica index, never the primary's.
func TestRequizHonestMatches(t *testing.T) {
	eng, jobs, primary := auditedRun(t, followerSrc, map[string][]string{"in/edges": edges()}, nil)
	quiz := requizAll(t, eng, jobs)
	if len(quiz) == 0 {
		t.Fatal("no quiz reports")
	}
	for _, r := range quiz {
		if r.Replica != 1 {
			t.Fatalf("quiz report carries replica %d, want 1: %+v", r.Replica, r.Key)
		}
		ps, ok := primary[r.Key]
		if !ok {
			t.Errorf("quiz filed key the primary never reported: %+v", r.Key)
			continue
		}
		if ps != r.Sum {
			t.Errorf("honest quiz sum differs for %+v", r.Key)
		}
	}
	// CPU accounting stays consistent: quiz work is committed work.
	if eng.QuizTasks == 0 {
		t.Error("QuizTasks not counted")
	}
}

// TestRequizDetectsCorruption: when the primary's map tasks computed on
// tampered tuples, the honest re-execution's digests must differ — this
// is the mismatch the controller escalates on.
func TestRequizDetectsCorruption(t *testing.T) {
	hook := func(_ cluster.NodeID, tk *Task) TaskFault {
		if tk.Kind == MapTask {
			return TaskFault{Corrupt: cluster.Corrupt}
		}
		return TaskFault{}
	}
	eng, jobs, primary := auditedRun(t, followerSrc, map[string][]string{"in/edges": edges()}, nil)
	engC, jobsC, primaryC := auditedRun(t, followerSrc, map[string][]string{"in/edges": edges()}, hook)
	_ = eng
	_ = jobs
	if len(primaryC) != len(primary) {
		t.Logf("corrupt run filed %d keys, honest %d", len(primaryC), len(primary))
	}
	quiz := requizAll(t, engC, jobsC)
	mismatch := false
	for _, r := range quiz {
		if ps, ok := primaryC[r.Key]; ok && ps != r.Sum {
			mismatch = true
		}
	}
	if !mismatch {
		t.Error("honest re-execution matched a corrupted primary on every key")
	}
}

// TestRequizErrors pins the validation surface: unknown jobs, incomplete
// jobs and malformed task IDs are rejected.
func TestRequizErrors(t *testing.T) {
	eng, jobs, _ := auditedRun(t, followerSrc, map[string][]string{"in/edges": edges()}, nil)
	if err := eng.Requiz("nope", "m0-000", 1, nil, nil); err == nil {
		t.Error("unknown job accepted")
	}
	if err := eng.Requiz(jobs[0].ID, "zz-999", 1, nil, nil); err == nil {
		t.Error("malformed task ID accepted")
	}
	if err := eng.Requiz(jobs[0].ID, "m9-999", 1, nil, nil); err == nil {
		t.Error("out-of-range task accepted")
	}
}

// TestRequizTaskIndexPastThreeDigits: requiz finds a task by its ID, never
// by parsing the ID back, so quizzing split or partition 1,000 re-executes
// that task and files its evidence under that task's own key — not split
// or partition 100's, which the three-digit width in the ID format reads
// back from "m0-1000" and "r1000".
func TestRequizTaskIndexPastThreeDigits(t *testing.T) {
	for _, c := range []struct {
		name             string
		records, reduces int
		splitRecords     int
		tid              string
	}{
		{"split", 1001, 1, 1, "m0-1000"},
		{"partition", 50, 1001, DefaultCostModel().SplitRecords, "r1000"},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := dfs.New()
			lines := make([]string, c.records)
			for i := range lines {
				lines[i] = fmt.Sprintf("%d\t%d", i, i+1)
			}
			fs.Append("in/edges", lines...)
			jobs, err := compileHelper(followerSrc, CompileOptions{NumReduces: c.reduces})
			if err != nil {
				t.Fatal(err)
			}
			cost := DefaultCostModel()
			cost.SplitRecords = c.splitRecords
			eng := NewEngine(fs, cluster.New(4, 2), nil, cost)
			primary := make(map[digest.Key]digest.Sum)
			eng.DigestSink = func(r digest.Report) { primary[r.Key] = r.Sum }
			spec := jobs[0]
			spec.SID, spec.Audit = "s0", true
			js, err := eng.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if !js.Done || !slices.Contains(js.TaskIDs(), c.tid) {
				t.Fatalf("job done=%v, task IDs %d, want %s among them", js.Done, len(js.TaskIDs()), c.tid)
			}
			want := digest.Key{SID: "s0", Point: AuditTaskPoint, Task: baseID(spec.ID) + "/" + c.tid}
			var quiz []digest.Report
			if err := eng.Requiz(spec.ID, c.tid, 1, func(r digest.Report) { quiz = append(quiz, r) }, nil); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if len(quiz) != 1 || quiz[0].Key != want {
				t.Fatalf("requiz of %s filed %+v, want one report under %+v", c.tid, quiz, want)
			}
			if ps, ok := primary[want]; !ok || ps != quiz[0].Sum {
				t.Errorf("honest quiz of %s disagrees with the primary (primary filed it: %v)", c.tid, ok)
			}
		})
	}
}

// TestEngineForgetSID: dropping a sub-graph attempt removes its jobs,
// output registrations and ordering entries, while other sids survive.
func TestEngineForgetSID(t *testing.T) {
	fs := dfs.New()
	fs.Append("in/edges", edges()...)
	p, err := pig.Parse(followerSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(fs, cluster.New(4, 2), nil, DefaultCostModel())
	var total int
	for _, sid := range []string{"sA", "sB"} {
		jobs, err := Compile(p, CompileOptions{NumReduces: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			j.SID = sid
			j.ID = sid + "/" + j.ID
			j.Output = sid + "/" + j.Output
			for i, d := range j.Deps {
				j.Deps[i] = sid + "/" + d
			}
			if _, err := eng.Submit(j); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	eng.Run()
	if got := eng.JobCount(); got != total {
		t.Fatalf("JobCount = %d, want %d", got, total)
	}
	eng.ForgetSID("sA")
	if got := eng.JobCount(); got != total/2 {
		t.Errorf("after forget sA: JobCount = %d, want %d", got, total/2)
	}
	// sB's jobs are intact and still in submission order.
	found := 0
	for _, j := range eng.jobOrder {
		if strings.HasPrefix(j, "sB/") {
			found++
		}
	}
	if found != total/2 {
		t.Errorf("sB jobs disturbed: %d of %d remain in order", found, total/2)
	}
	eng.ForgetSID("sB")
	if got := eng.JobCount(); got != 0 {
		t.Errorf("after forget sB: JobCount = %d, want 0", got)
	}
	if len(eng.jobOrder) != 0 {
		t.Errorf("jobOrder not emptied: %v", eng.jobOrder)
	}
}
