package introspect

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
	"clusterbft/internal/obs"
	"clusterbft/internal/pig"
	"clusterbft/internal/verify"
	"clusterbft/internal/workload"
)

const testScript = `
w = LOAD 'data/weather' AS (st, temp:int);
g1 = GROUP w BY st;
avgs = FOREACH g1 GENERATE group AS st, AVG(w.temp) AS a;
g2 = GROUP avgs BY a;
counts = FOREACH g2 GENERATE group AS a, COUNT(avgs) AS n;
STORE counts INTO 'out/counts';
`

func weatherData(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("st%02d\t%d", i%8, (i*37)%40)
	}
	return lines
}

// rig is a BFT-controlled run wired the way cmd/clusterbft -http wires one.
type rig struct {
	eng  *mapred.Engine
	ctrl *core.Controller
	srv  *Server
}

// newRig builds the deployment. Its runs meet faults — node-003 always
// corrupts, node-005 always withholds — so the endpoints are read, and
// under -race hammered, while the fault path writes the board.
func newRig(t *testing.T) *rig {
	return newRigOf(t, 8, map[cluster.NodeID]cluster.FaultKind{
		"node-003": cluster.FaultCommission,
		"node-005": cluster.FaultOmission,
	})
}

// newRigOf builds the deployment on nodes×3 slots with the given
// always-faulty nodes.
func newRigOf(t *testing.T, nodes int, faulty map[cluster.NodeID]cluster.FaultKind) *rig {
	t.Helper()
	sys := core.NewSystem(nodes, 3, dfs.Options{}, mapred.DefaultCostModel())
	fs, eng := sys.FS, sys.Engine
	for id, kind := range faulty {
		if err := sys.Cluster.SetAdversary(id, kind, 1.0, 11); err != nil {
			t.Fatal(err)
		}
	}
	fs.Append("data/weather", weatherData(500)...)
	reg := obs.NewRegistry()
	eng.InstrumentMetrics(reg)
	eng.Trace = obs.NewTracer(0)
	eng.Board = obs.NewJobsBoard()
	ctrl := sys.Assure(core.DefaultConfig())
	srv, err := Start("127.0.0.1:0", Options{
		Registry: reg,
		Tracer:   eng.Trace,
		Board:    eng.Board,
		Cost:     func() any { return eng.Ledger.Buckets() },
		SIDCost: func(sid string) (any, bool) {
			b, ok := eng.Ledger.SIDBuckets(sid)
			return b, ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); fs.Close() })
	return &rig{eng: eng, ctrl: ctrl, srv: srv}
}

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// jobsDoc mirrors the /jobs JSON contract the dashboard scrapes.
type jobsDoc struct {
	Jobs      []obs.JobStatus     `json:"jobs"`
	SIDs      []obs.SIDStatus     `json:"sids"`
	Suspicion obs.SuspicionStatus `json:"suspicion"`
	Cost      *mapred.CostBuckets `json:"cost"`
}

// TestJobsSuspicionIsTheTable serves /jobs after a controller's second
// and third runs and holds its suspicion summary to the table's. A
// completion moves every node's level without a blame decision, so a
// summary pushed only when blame moved goes stale from the second run on.
func TestJobsSuspicionIsTheTable(t *testing.T) {
	r := newRigOf(t, 16, map[cluster.NodeID]cluster.FaultKind{"node-003": cluster.FaultCommission})
	r.eng.FS.Append(workload.WeatherPath, workload.Weather(500, 50, 7)...)
	for run := 1; run <= 3; run++ {
		if _, err := r.ctrl.Run(workload.WeatherScript); err != nil {
			t.Fatal(err)
		}
		_, body, _ := get(t, r.srv.URL()+"/jobs")
		var doc jobsDoc
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/jobs JSON: %v\n%s", err, body)
		}
		h := r.ctrl.Susp.Histogram()
		got := [3]int{doc.Suspicion.Low, doc.Suspicion.Med, doc.Suspicion.High}
		if want := [3]int{h[verify.Low], h[verify.Med], h[verify.High]}; got != want {
			t.Errorf("run %d: /jobs low/med/high = %v, the suspicion table's %v", run, got, want)
		}
		var suspects []string
		for _, n := range r.ctrl.Susp.Suspects() {
			suspects = append(suspects, string(n))
		}
		if fmt.Sprint(doc.Suspicion.Suspects) != fmt.Sprint(suspects) {
			t.Errorf("run %d: /jobs suspects %v, the table's %v", run, doc.Suspicion.Suspects, suspects)
		}
	}
}

// TestMetricsGolden pins the /metrics exposition byte-for-byte for a
// fixed registry, including label-escaping edge cases, and checks the
// body re-parses with the in-repo validator.
func TestMetricsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Help("cost.cpu_us", "per-bucket cost attribution")
	reg.With("bucket", "committed").Func("cost.cpu_us", func() int64 { return 900 })
	reg.With("bucket", "verify", "mode", "quiz").Func("cost.cpu_us", func() int64 { return 100 })
	reg.Help("mapred.cpu_us", "virtual CPU microseconds charged to task bodies")
	reg.Counter("mapred.cpu_us").Add(1234567)
	h := reg.With("stage", "map", "job", "weird\"job\\name\n").Histogram("mapred.stage_task_duration_us", []int64{1000, 10000})
	h.Observe(500)
	h.Observe(20000)
	reg.Func("slots.free", func() int64 { return 12 })

	srv, err := Start("127.0.0.1:0", Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body, ct := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ct)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if body != string(want) {
		t.Errorf("/metrics diverges from %s:\ngot:\n%s\nwant:\n%s", golden, body, want)
	}
	st, err := obs.ParseExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("golden exposition does not parse: %v", err)
	}
	if st.Families != 4 || st.Series != 9 {
		t.Errorf("stats = %+v, want 4 families / 9 series", st)
	}
}

// TestEndpointsAfterRealRun drives a real verified run and round-trips
// every JSON endpoint against the engine's own state. The run meets
// faults (newRig), so /jobs must also name the deviant replicas and the
// nodes blamed for them, carry the suspicion summary and count the hung
// tasks; the sids rows and the summary are pinned to what the board
// served before its three SID setters became one upsert
// (testdata/faulty_sids.json, captured at that commit).
func TestEndpointsAfterRealRun(t *testing.T) {
	r := newRig(t)
	res, err := r.ctrl.Run(testScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("run not verified")
	}
	base := r.srv.URL()

	code, body, ct := get(t, base+"/jobs")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/jobs status=%d content-type=%q", code, ct)
	}
	var doc jobsDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/jobs JSON: %v\n%s", err, body)
	}
	if len(doc.Jobs) == 0 || len(doc.SIDs) == 0 {
		t.Fatalf("/jobs empty: %d jobs, %d sids", len(doc.Jobs), len(doc.SIDs))
	}
	var done *obs.JobStatus
	for i := range doc.Jobs {
		j := &doc.Jobs[i]
		if j.State != "done" && j.State != "killed" {
			t.Errorf("job %s still %q after quiesce", j.ID, j.State)
		}
		if j.State == "done" && done == nil {
			done = j
		}
	}
	if done == nil {
		t.Fatal("no done job on the board")
	}
	if done.SID == "" || done.MapsTotal == 0 || done.MapsDone != done.MapsTotal || done.Progress != 1 {
		t.Errorf("done job malformed: %+v", done)
	}
	verified := 0
	for _, s := range doc.SIDs {
		if s.State == "verified" {
			verified++
			if s.Policy != "full" {
				t.Errorf("sid %s policy = %q, want full", s.SID, s.Policy)
			}
		}
	}
	if verified == 0 {
		t.Errorf("no verified sid on the board: %+v", doc.SIDs)
	}
	hung := 0
	for _, j := range doc.Jobs {
		hung += j.TasksHung
	}
	if hung == 0 {
		t.Error("/jobs counts no hung task though node-005 withholds every result")
	}
	if len(doc.Suspicion.Suspects) == 0 {
		t.Errorf("/jobs suspicion names no suspect: %+v", doc.Suspicion)
	}
	sids, err := json.MarshalIndent(map[string]any{"sids": doc.SIDs, "suspicion": doc.Suspicion}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join("testdata", "faulty_sids.json")
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(want), "faulty_replicas") || !strings.Contains(string(want), "faulty_nodes") {
		t.Fatalf("%s pins no deviant replica or blamed node", fixture)
	}
	if string(sids) != strings.TrimSpace(string(want)) {
		t.Errorf("sids rows diverge from %s:\ngot:\n%s\nwant:\n%s", fixture, sids, want)
	}
	if doc.Cost == nil || doc.Cost.CommittedUs == 0 {
		t.Fatalf("/jobs cost missing or empty: %+v", doc.Cost)
	}
	if got, want := doc.Cost.TotalUs(), r.eng.Metrics.CPUTimeUs; got != want {
		t.Errorf("/jobs cost buckets sum to %d, engine charged %d", got, want)
	}

	// Job IDs contain slashes; the /jobs/{id} route must take them whole.
	if !strings.Contains(done.ID, "/") {
		t.Fatalf("expected a slash-scoped job ID, got %q", done.ID)
	}
	code, body, _ = get(t, base+"/jobs/"+done.ID)
	if code != http.StatusOK {
		t.Fatalf("/jobs/%s status = %d", done.ID, code)
	}
	var one obs.JobStatus
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatalf("/jobs/{id} JSON: %v", err)
	}
	if one.ID != done.ID || one.TasksCommitted != done.TasksCommitted {
		t.Errorf("/jobs/{id} = %+v, want %+v", one, done)
	}

	code, body, _ = get(t, base+"/jobs/"+done.ID+"/stragglers")
	if code != http.StatusOK {
		t.Fatalf("stragglers status = %d", code)
	}
	var rep obs.StragglerReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("stragglers JSON: %v", err)
	}
	if rep.Job != done.ID || len(rep.Stages) == 0 {
		t.Errorf("straggler report malformed: %+v", rep)
	}

	if code, _, _ := get(t, base+"/jobs/no/such/job"); code != http.StatusNotFound {
		t.Errorf("missing job status = %d, want 404", code)
	}

	code, body, _ = get(t, base+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	// /metrics reflects the run and parses.
	_, body, _ = get(t, base+"/metrics")
	st, err := obs.ParseExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics invalid after run: %v", err)
	}
	if st.Series == 0 {
		t.Error("/metrics empty after run")
	}
	if !strings.Contains(body, `cost_cpu_us{bucket="committed"}`) {
		t.Error("/metrics missing cost attribution family")
	}
	if !strings.Contains(body, "mapred_stage_task_duration_us_bucket") {
		t.Error("/metrics missing per-stage duration histogram")
	}

	// /trace streams spans as JSONL; drain empties the ring.
	_, body, ct = get(t, base+"/trace?drain=1")
	if !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("/trace content-type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("/trace drained no spans")
	}
	var span map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &span); err != nil {
		t.Errorf("trace line not JSON: %v", err)
	}
	if _, body, _ = get(t, base+"/trace"); strings.TrimSpace(body) != "" {
		t.Errorf("ring not empty after drain: %q", body)
	}
}

// TestEndpointsLiveDuringRun hammers the introspection plane from HTTP
// goroutines while the simulation executes — the concurrency contract
// the whole package exists for (run with -race).
func TestEndpointsLiveDuringRun(t *testing.T) {
	r := newRig(t)
	base := r.srv.URL()
	runErr := make(chan error, 1)
	runDone := make(chan struct{})
	go func() {
		_, err := r.ctrl.Run(testScript)
		runErr <- err
		close(runDone)
	}()
	hammerDone := make(chan struct{})
	go func() {
		defer close(hammerDone)
		for i := 0; ; i++ {
			select {
			case <-runDone:
				return
			default:
			}
			for _, path := range []string{"/jobs", "/metrics", "/healthz", "/trace"} {
				resp, err := http.Get(base + path)
				if err != nil {
					t.Errorf("live GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	<-hammerDone
}

// TestUnservedEndpoints: a handler with no tracer 404s /trace instead of
// crashing.
func TestUnservedEndpoints(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _, _ := get(t, srv.URL()+"/trace"); code != http.StatusNotFound {
		t.Errorf("/trace with no tracer = %d, want 404", code)
	}
	// Nil registry and board degrade to empty documents, not panics.
	if code, body, _ := get(t, srv.URL()+"/metrics"); code != http.StatusOK || body != "" {
		t.Errorf("/metrics with nil registry = %d %q", code, body)
	}
	code, body, _ := get(t, srv.URL()+"/jobs")
	if code != http.StatusOK || !strings.Contains(body, `"jobs": []`) {
		t.Errorf("/jobs with nil board = %d %q", code, body)
	}
}

// TestSilentClientIsDisconnected: a peer that opens a connection and
// never sends a request header is dropped by the server once
// readHeaderTimeout passes, instead of pinning a goroutine forever.
func TestSilentClientIsDisconnected(t *testing.T) {
	t.Parallel()
	srv, err := Start("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The client-side deadline only bounds the test: hitting it means the
	// server never hung up.
	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = conn.Read(make([]byte, 1))
	if err != io.EOF {
		t.Fatalf("read on a silent connection = %v after %v, want EOF (server hang-up)", err, time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("server hung up after %v, before readHeaderTimeout %v could have fired", waited, readHeaderTimeout)
	}
}

// TestStragglersBeforeAnyCommit: a job queried the instant it is
// submitted — zero committed tasks, zero duration observations — must
// serialize as an empty report with "stages": [] and "stragglers": [],
// never null arrays or degenerate NaN/Inf-shaped quantiles computed
// over an empty window.
func TestStragglersBeforeAnyCommit(t *testing.T) {
	r := newRig(t)
	plan, err := pig.Parse(testScript)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := mapred.Compile(plan, mapred.CompileOptions{NumReduces: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Submit puts the job on the board; no Run, so nothing ever commits.
	if _, err := r.eng.Submit(jobs[0]); err != nil {
		t.Fatal(err)
	}
	id := jobs[0].ID
	code, body, _ := get(t, r.srv.URL()+"/jobs/"+id+"/stragglers")
	if code != http.StatusOK {
		t.Fatalf("stragglers before commit status = %d, body %q", code, body)
	}
	var rep obs.StragglerReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("stragglers JSON: %v", err)
	}
	if rep.Job != id {
		t.Errorf("report job = %q, want %q", rep.Job, id)
	}
	if rep.Stages == nil || len(rep.Stages) != 0 {
		t.Errorf("stages = %#v, want empty non-nil slice", rep.Stages)
	}
	if rep.Stragglers == nil || len(rep.Stragglers) != 0 {
		t.Errorf("stragglers = %#v, want empty non-nil slice", rep.Stragglers)
	}
	for _, tok := range []string{`"stages": null`, `"stragglers": null`, "NaN", "Inf"} {
		if strings.Contains(body, tok) {
			t.Errorf("raw body contains %q: %s", tok, body)
		}
	}
}
