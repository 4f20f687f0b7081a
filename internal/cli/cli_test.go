package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBindApply: the shared flags land on exactly the Config fields they
// own — policy, checkpoint, storage — and leave the rest of the caller's
// Config alone; what cannot be resolved or validated is an error.
func TestBindApply(t *testing.T) {
	f := parse(t, "-verify-policy", "quiz", "-checkpoint",
		"-block-size", "4096", "-mem-budget", "16k", "-spill-dir", "/x", "-compress",
		"-trace", "t.json", "-metrics", "-http", ":0")
	cfg := core.DefaultConfig()
	cfg.F, cfg.R = 2, 7
	if err := f.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	want := core.DefaultConfig()
	want.F, want.R = 2, 7
	want.VerifyPolicy = core.PolicyQuiz
	want.Checkpoint = true
	want.Storage = dfs.Options{BlockSize: 4096, MemBudget: 16 << 10, SpillDir: "/x", Compress: true}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("Apply:\n got %+v\nwant %+v", cfg, want)
	}
	if f.Trace != "t.json" || !f.Metrics || f.HTTP != ":0" {
		t.Errorf("observability flags = %q %v %q", f.Trace, f.Metrics, f.HTTP)
	}

	cfg = core.DefaultConfig()
	if err := parse(t).Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	want = core.DefaultConfig()
	want.VerifyPolicy = core.PolicyFull
	want.Storage = dfs.Options{BlockSize: dfs.DefaultBlockSize}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("Apply with no flags:\n got %+v\nwant %+v", cfg, want)
	}

	for _, bad := range [][]string{
		{"-verify-policy", "bogus"},
		{"-verify-policy", "none"}, // cmd/clusterbft's own, not a core.Policy
		{"-mem-budget", "lots"},
	} {
		cfg := core.DefaultConfig()
		if err := parse(t, bad...).Apply(&cfg); err == nil {
			t.Errorf("Apply(%v) = nil, want an error", bad)
		}
	}
	cfg = core.DefaultConfig()
	cfg.R = 0
	if err := parse(t).Apply(&cfg); err == nil {
		t.Error("Apply on r=0 = nil, want Validate's error")
	}
}

const countScript = `
e = LOAD 'in/e' AS (k:int, v:int);
g = GROUP e BY k;
c = FOREACH g GENERATE group, COUNT(e);
STORE c INTO 'out/c';
`

func plainEngine(t *testing.T, rows int) *mapred.Engine {
	t.Helper()
	fs := dfs.New()
	for i := 0; i < rows; i++ {
		fs.Append("in/e", "1\t2")
	}
	return mapred.NewEngine(fs, cluster.New(2, 2), nil, mapred.DefaultCostModel())
}

// TestPlaneAttachSuccessiveEngines: a command that builds many engines
// attaches each in turn; /jobs then serves the ledger of the one
// attached last, and /metrics accumulates across them.
func TestPlaneAttachSuccessiveEngines(t *testing.T) {
	var out bytes.Buffer
	plane, err := parse(t, "-http", "127.0.0.1:0").Start(&out)
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	base, ok := strings.CutPrefix(strings.TrimSpace(out.String()), "introspection: ")
	if !ok {
		t.Fatalf("Start announced %q", out.String())
	}
	cost := func() mapred.CostBuckets {
		t.Helper()
		resp, err := http.Get(base + "/jobs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Cost mapred.CostBuckets `json:"cost"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc.Cost
	}

	first, second := plainEngine(t, 50), plainEngine(t, 5000)
	plane.Attach(first)
	if _, err := core.RunPlain(first, countScript); err != nil {
		t.Fatal(err)
	}
	firstCost := first.Ledger.Buckets()
	if firstCost.TotalUs() == 0 || cost() != firstCost {
		t.Fatalf("/jobs cost = %+v, want the first engine's ledger %+v (non-zero)", cost(), firstCost)
	}
	plane.Attach(second)
	if got := cost(); got != (mapred.CostBuckets{}) {
		t.Errorf("/jobs cost after attaching a fresh engine = %+v, want zero", got)
	}
	if _, err := core.RunPlain(second, countScript); err != nil {
		t.Fatal(err)
	}
	if got := cost(); got != second.Ledger.Buckets() || got == firstCost {
		t.Errorf("/jobs cost = %+v, want the second engine's ledger %+v", got, second.Ledger.Buckets())
	}

	var report bytes.Buffer
	if err := plane.Report(&report); err != nil || report.Len() != 0 {
		t.Errorf("Report without -trace/-metrics wrote %q, err %v", report.String(), err)
	}
	var mapRecords int64 = -1
	for _, s := range plane.reg.Snapshot() {
		if s.Name == "mapred.task.map_records" {
			mapRecords = s.Value
		}
	}
	if mapRecords != 50+5000 {
		t.Errorf("mapred.task.map_records = %d, want both engines' %d", mapRecords, 50+5000)
	}
}

// TestPlaneInert: with no shared flag set, Attach leaves the engine
// uninstrumented and Report prints nothing.
func TestPlaneInert(t *testing.T) {
	var out bytes.Buffer
	plane, err := parse(t).Start(&out)
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	e := plainEngine(t, 10)
	plane.Attach(e)
	if e.Registry() != nil || e.Trace != nil || e.Board != nil || e.Speculation {
		t.Error("inert plane touched the engine")
	}
	if err := plane.Report(&out); err != nil || out.Len() != 0 {
		t.Errorf("inert plane wrote %q, err %v", out.String(), err)
	}
}
