package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
)

// runMain, set in a child's environment, makes the test binary run the
// command instead of its tests.
const runMain = "CLUSTERBFT_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStdoutDigests runs each command line testdata/stdout.sha256 lists,
// as a child process of the test binary with GOMAXPROCS=2 (--metrics
// prints the worker pool's size), and holds its stdout to the sha256
// recorded beside it: the byte identity of the command's report,
// -explain's sub-graph and replica states included.
func TestStdoutDigests(t *testing.T) {
	f, err := os.Open("testdata/stdout.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := bufio.NewScanner(f)
	for lines.Scan() {
		if strings.HasPrefix(lines.Text(), "#") {
			continue
		}
		want, command, _ := strings.Cut(lines.Text(), "  ")
		cmd := exec.Command(os.Args[0], strings.Fields(command)[1:]...)
		cmd.Env = append(os.Environ(), runMain+"=1", "GOMAXPROCS=2")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v", command, err)
		}
		if sum := sha256.Sum256(out); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: stdout sha256 %x, want %s; stdout:\n%s", command, sum, want, out)
		}
	}
	if err := lines.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	local := filepath.Join(dir, "data.tsv")
	if err := os.WriteFile(local, []byte("1\ta\n2\tb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := dfs.NewWith(dfs.Options{})
	if err := loadFile(fs, "in/data", local); err != nil {
		t.Fatal(err)
	}
	lines, err := fs.ReadTree("in/data")
	if err != nil || len(lines) != 2 || lines[0] != "1\ta" {
		t.Errorf("lines = %v, err = %v", lines, err)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if err := loadFile(dfs.NewWith(dfs.Options{}), "x", "/nonexistent/file"); err == nil {
		t.Error("missing file should error")
	}
}

func TestAttachAdversary(t *testing.T) {
	cl := cluster.New(4, 2)
	if err := attachAdversary(cl, "node-001:commission:0.5"); err != nil {
		t.Fatal(err)
	}
	n := cl.Node("node-001")
	if n.Adversary == nil || n.Adversary.Kind != cluster.FaultCommission || n.Adversary.Probability != 0.5 {
		t.Errorf("adversary = %+v", n.Adversary)
	}
	if err := attachAdversary(cl, "node-002:omission:1.0"); err != nil {
		t.Fatal(err)
	}
	if cl.Node("node-002").Adversary.Kind != cluster.FaultOmission {
		t.Error("omission kind not set")
	}
}

func TestAttachAdversaryErrors(t *testing.T) {
	cl := cluster.New(2, 1)
	cases := []string{
		"node-001",                 // too few parts
		"node-001:evil:1.0",        // unknown kind
		"node-001:commission:nope", // bad probability
		"node-099:commission:1.0",  // unknown node
		"node-001:commission:NaN",  // not a probability
		"node-001:commission:-1",   // below [0,1]
		"node-001:commission:7",    // above [0,1]
	}
	for _, c := range cases {
		if err := attachAdversary(cl, c); err == nil {
			t.Errorf("spec %q should error", c)
		}
	}
}

func TestRepeatedFlag(t *testing.T) {
	var r repeated
	if err := r.Set("a=b"); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("c=d"); err != nil {
		t.Fatal(err)
	}
	if r.String() != "a=b,c=d" || len(r) != 2 {
		t.Errorf("repeated = %v", r)
	}
}

// storeRecords returns stdout from the first STORE header ("<path> (N
// records):") on — the part of a run's output that is the script's
// result rather than a report about the run.
func storeRecords(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "\nout/")
	if i < 0 {
		t.Fatalf("no STORE records in:\n%s", out)
	}
	return out[i:]
}

// TestRunFrontDoor drives the whole command through run(): the folded
// baseline (-verify-policy none) prints the baseline header line and the
// same STORE records as the default assured run, its -explain prints
// structure and runs nothing, and bad command lines are errors.
func TestRunFrontDoor(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "q.pig")
	data := filepath.Join(dir, "edges.tsv")
	const src = `edges = LOAD 'in/edges' AS (user:int, follower:int);
grouped = GROUP edges BY user;
counts = FOREACH grouped GENERATE group AS user, COUNT(edges) AS followers;
STORE counts INTO 'out/followers';
`
	var tsv strings.Builder
	for i := 1; i <= 500; i++ {
		fmt.Fprintf(&tsv, "%d\t%d\n", i%40, i)
	}
	for path, body := range map[string]string{script: src, data: tsv.String()} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	args := func(extra ...string) []string {
		return append([]string{"-script", script, "-input", "in/edges=" + data, "-show", "100"}, extra...)
	}
	runOK := func(extra ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(args(extra...), &out); err != nil {
			t.Fatalf("run %v: %v", extra, err)
		}
		return out.String()
	}

	assured := runOK()
	if !strings.HasPrefix(assured, "verified:        true\n") || !strings.Contains(assured, "out/followers (40 records):") {
		t.Fatalf("default run:\n%s", assured)
	}
	plain := runOK("-verify-policy", "none")
	if !strings.HasPrefix(plain, "latency: ") || !strings.Contains(plain[:strings.Index(plain, "\n")], "   jobs: 1") {
		t.Errorf("baseline header line = %q", plain[:strings.Index(plain, "\n")])
	}
	if strings.Contains(plain, "verified") {
		t.Errorf("baseline run claims verification:\n%s", plain)
	}
	if got, want := storeRecords(t, plain), storeRecords(t, assured); got != want {
		t.Errorf("baseline STORE records differ from the assured run's:\n%s\nvs\n%s", got, want)
	}
	if quiz := runOK("-verify-policy", "quiz"); storeRecords(t, quiz) != storeRecords(t, assured) {
		t.Errorf("quiz STORE records differ from the full-r run's")
	}

	explain := runOK("-verify-policy", "none", "-explain")
	if !strings.HasPrefix(explain, "logical plan:\n") || !strings.Contains(explain, "\ncompiled jobs:\n") {
		t.Errorf("-verify-policy none -explain:\n%s", explain)
	}
	if strings.Contains(explain, "latency") || strings.Contains(explain, "records):") {
		t.Errorf("-verify-policy none -explain ran the script:\n%s", explain)
	}

	for _, bad := range [][]string{
		args("-verify-policy", "bogus"),
		args("-combine=off"),
		args("-verify-policy", "none", "-checkpoint"),
		args("-f", "-1"),
		args("-r", "0"),
		args("-r", "100"),
		args("-nodes", "0"),
		args("-slots", "0"),
		{"-input", "in/edges=" + data}, // no -script
		{"-script", script},            // LOAD path with no data
	} {
		var out bytes.Buffer
		if err := run(bad, &out); err == nil {
			t.Errorf("run %v = nil, want an error; stdout:\n%s", bad, out.String())
		}
	}
}
