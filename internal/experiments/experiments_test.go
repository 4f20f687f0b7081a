package experiments

import (
	"strings"
	"testing"

	"clusterbft/internal/core"
)

func TestFig9SmallScale(t *testing.T) {
	res, err := Fig9(Small())
	if err != nil {
		t.Fatal(err)
	}
	if res.PurePigUs <= 0 || len(res.Rows) != 3 {
		t.Fatalf("result = %+v", res)
	}
	for _, row := range res.Rows {
		if row.SingleUs < res.PurePigUs {
			t.Errorf("%s: single %d below pure %d", row.Label, row.SingleUs, res.PurePigUs)
		}
		if row.BFTUs < row.SingleUs {
			t.Errorf("%s: bft %d below single %d", row.Label, row.BFTUs, row.SingleUs)
		}
		// The paper's headline: modest overhead.
		if float64(row.BFTUs) > 2.0*float64(res.PurePigUs) {
			t.Errorf("%s: bft overhead ratio %.2f too high", row.Label,
				float64(row.BFTUs)/float64(res.PurePigUs))
		}
	}
	// More points cost at least as much digesting (single execution).
	if res.Rows[2].SingleUs < res.Rows[0].SingleUs {
		t.Errorf("3 points (%d) cheaper than 1 point (%d)", res.Rows[2].SingleUs, res.Rows[0].SingleUs)
	}
	out := res.Render()
	if !strings.Contains(out, "Pure Pig") || !strings.Contains(out, "3 points") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFig10SmallScale(t *testing.T) {
	res, err := Fig10(Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byLabel := map[string]OverheadRow{}
	for _, r := range res.Rows {
		byLabel[r.Label] = r
	}
	// The join's output dwarfs filter/project inputs, so digesting at the
	// join costs the most among single-point configs.
	if byLabel["Join"].SingleUs < byLabel["Filter"].SingleUs {
		t.Errorf("join digest (%d) should cost at least filter digest (%d)",
			byLabel["Join"].SingleUs, byLabel["Filter"].SingleUs)
	}
	// The all-points config is the most expensive.
	if byLabel["J,P&F"].SingleUs < byLabel["Join"].SingleUs {
		t.Errorf("all points (%d) cheaper than join only (%d)",
			byLabel["J,P&F"].SingleUs, byLabel["Join"].SingleUs)
	}
	if !strings.Contains(res.Render(), "J,P&F") {
		t.Error("render missing row")
	}
}

func TestTable3SmallScale(t *testing.T) {
	res, err := Table3(Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base := res.Baseline
	if base.LatencyUs <= 0 {
		t.Fatal("baseline missing")
	}
	for _, row := range res.Rows {
		if !row.C.Verified || !row.P.Verified {
			t.Errorf("%s: unverified C=%v P=%v", row.Label, row.C.Verified, row.P.Verified)
		}
		// Replication multiplies resource usage.
		if row.C.Metrics.CPUTimeUs <= base.Metrics.CPUTimeUs {
			t.Errorf("%s: C CPU not above baseline", row.Label)
		}
		if row.P.Metrics.HDFSBytesWritten <= base.Metrics.HDFSBytesWritten {
			t.Errorf("%s: P HDFS writes not above baseline", row.Label)
		}
	}
	// r=4 tolerates the fault without re-initiation; r=2 cannot.
	r2, r4 := res.Rows[0], res.Rows[3]
	if r2.C.Attempts <= r4.C.Attempts {
		t.Errorf("r=2 attempts (%d) should exceed r=4 attempts (%d)", r2.C.Attempts, r4.C.Attempts)
	}
	out := res.Render()
	for _, want := range []string{"Latency", "CPU time", "HDFS write", "r=3c2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig11SmallScale(t *testing.T) {
	sc := Small()
	sc.Trials = 2
	res := Fig11(sc)
	if len(res.Points) != 10 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Higher probability isolates in fewer (or equal) jobs: compare the
	// endpoints for the main series.
	lo := res.Points[0].Jobs["r1,f=1"]
	hi := res.Points[9].Jobs["r1,f=1"]
	if hi > lo {
		t.Errorf("p=1.0 needs %.1f jobs, p=0.1 needs %.1f; expected monotone-ish decrease", hi, lo)
	}
	if !strings.Contains(res.Render(), "p(commission)") {
		t.Error("render header missing")
	}
}

func TestFig12SmallScale(t *testing.T) {
	res := Fig12(Small())
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
	if res.TimeAtSaturation < 0 {
		t.Error("run never saturated")
	}
	last := res.Samples[len(res.Samples)-1]
	if last.High == 0 {
		t.Error("no High-suspicion node at end")
	}
	if !strings.Contains(res.Render(), "Fig 12") {
		t.Error("render name missing")
	}
}

func TestFig13SmallScale(t *testing.T) {
	res := Fig13(Small())
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
	// Large-job mix: the peak suspect population is large (a sizeable
	// fraction of the 250-node cluster), demonstrating the spike.
	peak := 0
	for _, s := range res.Samples {
		if s.Suspects > peak {
			peak = s.Suspects
		}
	}
	if peak < 20 {
		t.Errorf("peak suspects = %d; expected a spike with large jobs", peak)
	}
}

func TestFig14SmallScale(t *testing.T) {
	sc := Small()
	res, err := Fig14(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Full.TotalUs() <= 0 {
			t.Fatalf("f=%d d=%d: empty cell", row.F, row.D)
		}
		// Individual digests at least as much as ClusterBFT, which
		// digests at least as much as Full.
		if row.Indiv.Reports < row.Cluster.Reports || row.Cluster.Reports < row.Full.Reports {
			t.Errorf("f=%d d=%d: report ordering %d/%d/%d", row.F, row.D,
				row.Full.Reports, row.Cluster.Reports, row.Indiv.Reports)
		}
	}
	// Smaller d => more digests => more control-tier work (compare d=10k
	// and d=100 at f=1 for the Individual system).
	var d10k, d100 Fig14Row
	for _, row := range res.Rows {
		if row.F == 1 && row.D == 10_000 {
			d10k = row
		}
		if row.F == 1 && row.D == 100 {
			d100 = row
		}
	}
	if d100.Indiv.ControlUs <= d10k.Indiv.ControlUs {
		t.Errorf("d=100 control time %d should exceed d=10k %d",
			d100.Indiv.ControlUs, d10k.Indiv.ControlUs)
	}
	if !strings.Contains(res.Render(), "clusterbft(s)") {
		t.Error("render header missing")
	}
}

func TestControlTierTime(t *testing.T) {
	zero, batches, err := core.ControlTierTime(1, 0)
	if err != nil || zero != 0 || batches != 0 {
		t.Errorf("no reports should cost nothing: %d in %d batches, %v", zero, batches, err)
	}
	small, batches, err := core.ControlTierTime(1, 41)
	if err != nil {
		t.Fatal(err)
	}
	if batches != 3 {
		t.Errorf("41 reports ordered in %d batches, want 3 (20 to a batch)", batches)
	}
	big, _, err := core.ControlTierTime(1, 400)
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Errorf("10x reports should cost more: %d vs %d", big, small)
	}
	f3, _, err := core.ControlTierTime(3, 41)
	if err != nil {
		t.Fatal(err)
	}
	if f3 < small {
		t.Errorf("f=3 ordering (%d) should cost at least f=1 (%d)", f3, small)
	}
}

func TestScalePresets(t *testing.T) {
	s, p := Small(), Paper()
	if s.TwitterEdges >= p.TwitterEdges || s.Nodes > p.Nodes {
		t.Error("Small should be smaller than Paper")
	}
	if p.Nodes != 32 {
		t.Errorf("paper untrusted tier = %d nodes, want 32", p.Nodes)
	}
}

func TestTableRenderer(t *testing.T) {
	out := table([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasPrefix(lines[0], "a  ") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestHelpers(t *testing.T) {
	if ratio(30, 10) != "3.00x" || ratio(5, 0) != "   -" {
		t.Error("ratio rendering")
	}
	if overheadPct(110, 100) != "+10.0%" || overheadPct(1, 0) != "-" {
		t.Error("overhead rendering")
	}
	if dLabel(10000) != "10k" || dLabel(100) != "100" {
		t.Error("dLabel")
	}
}

func TestRecoveryTable(t *testing.T) {
	res, err := Recovery()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RecoveryRow{}
	var clean int64
	for _, row := range res.Rows {
		byName[row.Scenario] = row
		if row.Violations > 0 {
			t.Errorf("%s: %d invariant violations", row.Scenario, row.Violations)
		}
		if row.Scenario == "clean" {
			clean = row.LatencyUs
		}
	}
	// Single-victim faults are masked by f+1-of-R verification: no added
	// latency over the clean run.
	for _, name := range []string{"crash+rejoin", "hang p=0.6", "commission p=0.9"} {
		row, ok := byName[name]
		if !ok {
			t.Fatalf("missing scenario %q", name)
		}
		if !row.Verified {
			t.Errorf("%s: not verified", name)
		}
		// Placement may shift by a heartbeat or two; within 1% of the
		// clean run counts as masked.
		if diff := row.LatencyUs - clean; diff > clean/100 || diff < -clean/100 {
			t.Errorf("%s: latency %d vs clean %d; single victims should be masked", name, row.LatencyUs, clean)
		}
	}
	// Hanging half the cluster exceeds the replication margin: the run
	// must pay retries and measurable latency, yet still verify.
	hang3 := byName["hang 3 nodes p=0.9"]
	if !hang3.Verified || hang3.Recoveries["retry"] == 0 || hang3.LatencyUs <= clean {
		t.Errorf("hang 3 nodes: verified=%v retries=%d latency=%d (clean %d)",
			hang3.Verified, hang3.Recoveries["retry"], hang3.LatencyUs, clean)
	}
	// Checkpoint-granular recovery plus straggler re-launch must cut the
	// worst omission scenario's latency multiple to at most 2.5x the
	// clean run (it was 5.63x with whole-sub-graph re-execution).
	if !hang3.CkptVerified || hang3.CkptViolations > 0 {
		t.Errorf("hang 3 nodes (ckpt): verified=%v violations=%d", hang3.CkptVerified, hang3.CkptViolations)
	}
	if 2*hang3.CkptLatencyUs > 5*clean {
		t.Errorf("hang 3 nodes (ckpt): latency %dus exceeds 2.5x clean (%dus)", hang3.CkptLatencyUs, clean)
	}
	if hang3.CkptLatencyUs >= hang3.LatencyUs {
		t.Errorf("hang 3 nodes: checkpointed path no faster: %d vs %d us", hang3.CkptLatencyUs, hang3.LatencyUs)
	}
	// The timed crash window is the checkpoint-consumption scenario: the
	// retry after the crash must skip the persisted interior job.
	crash5 := byName["crash 5 nodes 60s"]
	if !crash5.Verified || !crash5.CkptVerified || crash5.CkptViolations > 0 {
		t.Errorf("crash 5 nodes: base verified=%v ckpt verified=%v violations=%d",
			crash5.Verified, crash5.CkptVerified, crash5.CkptViolations)
	}
	if crash5.CkptSaves == 0 || crash5.CkptHits == 0 {
		t.Errorf("crash 5 nodes: saves=%d hits=%d, want both > 0", crash5.CkptSaves, crash5.CkptHits)
	}
	if crash5.CkptLatencyUs > crash5.LatencyUs {
		t.Errorf("crash 5 nodes: checkpointed recovery slower: %d vs %d us", crash5.CkptLatencyUs, crash5.LatencyUs)
	}
	if !strings.Contains(res.Render(), "saves/hits") {
		t.Error("render header missing")
	}
}

func TestVerifyCostSmallScale(t *testing.T) {
	res, err := VerifyCost(Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	byPolicy := map[string]VerifyCostRow{}
	for _, r := range res.Rows {
		byPolicy[r.Policy] = r
		if r.DetectUs <= 0 {
			t.Errorf("%s: detection latency not measured: %d", r.Policy, r.DetectUs)
		}
		if r.RecoverUs <= 0 {
			t.Errorf("%s: recovery latency not measured", r.Policy)
		}
	}
	full := byPolicy["full"]
	for _, p := range []string{"quiz", "deferred"} {
		row := byPolicy[p]
		// The acceptance bar: the cheap policies spend at least 2x less
		// compute than full replication on a fault-free run.
		if row.CPUUs*2 > full.CPUUs {
			t.Errorf("%s CPU %d not >= 2x cheaper than full %d", p, row.CPUUs, full.CPUUs)
		}
		if row.QuizTasks == 0 {
			t.Errorf("%s ran no quizzes", p)
		}
	}
	if full.QuizTasks != 0 {
		t.Errorf("full ran %d quizzes", full.QuizTasks)
	}
	out := res.Render()
	if !strings.Contains(out, "deferred") || !strings.Contains(out, "cpu/full") {
		t.Errorf("render:\n%s", out)
	}
}

func TestOutOfCoreSmallScale(t *testing.T) {
	// OutOfCore self-asserts the acceptance regime: something spilled,
	// the resident high-water mark stayed under the budget (read back
	// through the dfs obs gauges), and the spill run's outputs, digest
	// counts and engine metrics matched the all-resident run byte for
	// byte. Any violation surfaces as err.
	sc := Small()
	sc.Core.Storage.SpillDir = t.TempDir()
	res, err := OutOfCore(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatal("storage modes not observationally identical")
	}
	if res.DatasetBytes < 4*res.BudgetBytes {
		t.Fatalf("dataset %d B under 4x the %d B budget; regime too easy", res.DatasetBytes, res.BudgetBytes)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	spill := res.Rows[1]
	if spill.BlocksSpill == 0 || spill.SpillBytes == 0 {
		t.Fatalf("spill row did not spill: %+v", spill)
	}
	if spill.MaxResident > res.BudgetBytes {
		t.Fatalf("resident high-water %d B over the %d B budget", spill.MaxResident, res.BudgetBytes)
	}
	if spill.CompressPct <= 0 || spill.CompressPct >= 100 {
		t.Errorf("compressed ratio %d%% not in (0,100); flate gained nothing", spill.CompressPct)
	}
	out := res.Render()
	if !strings.Contains(out, "spill+flate") || !strings.Contains(out, "identical: true") {
		t.Errorf("render:\n%s", out)
	}
}
