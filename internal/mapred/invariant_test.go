package mapred

import (
	"fmt"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
)

// Slot-accounting invariant: whatever mixture of completions, kills,
// hung tasks and speculative backups a run goes through, every slot must
// be returned once the engine settles (completed or killed jobs).

func slotFixture(t *testing.T, rows int) (*Engine, []*JobSpec) {
	t.Helper()
	fs := dfs.NewWith(dfs.Options{})
	var lines []string
	for i := 0; i < rows; i++ {
		lines = append(lines, fmt.Sprintf("%d\t%d", i%40, i))
	}
	fs.Append("in/edges", lines...)
	jobs, err := compileHelper(followerSrc, CompileOptions{NumReduces: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(fs, cluster.New(5, 2), nil, DefaultCostModel())
	return eng, jobs
}

func TestSlotInvariantHonestRun(t *testing.T) {
	eng, jobs := slotFixture(t, 25000)
	if _, err := eng.Submit(jobs[0]); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got := eng.FreeSlotsTotal(); got != eng.Cluster.TotalSlots() {
		t.Errorf("free slots = %d, want %d", got, eng.Cluster.TotalSlots())
	}
}

func TestSlotInvariantAfterKill(t *testing.T) {
	eng, jobs := slotFixture(t, 25000)
	if _, err := eng.Submit(jobs[0]); err != nil {
		t.Fatal(err)
	}
	// Kill mid-flight.
	eng.After(1_500_000, func() { eng.KillJob(jobs[0].ID) })
	eng.Run()
	if got := eng.FreeSlotsTotal(); got != eng.Cluster.TotalSlots() {
		t.Errorf("free slots after kill = %d, want %d", got, eng.Cluster.TotalSlots())
	}
}

func TestSlotInvariantKillReleasesHungTasks(t *testing.T) {
	eng, jobs := slotFixture(t, 25000)
	if err := eng.Cluster.SetAdversary("node-001", cluster.FaultOmission, 1.0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(jobs[0]); err != nil {
		t.Fatal(err)
	}
	eng.After(30_000_000, func() { eng.KillJob(jobs[0].ID) })
	eng.Run()
	if got := eng.FreeSlotsTotal(); got != eng.Cluster.TotalSlots() {
		t.Errorf("free slots after killing hung job = %d, want %d", got, eng.Cluster.TotalSlots())
	}
}

func TestSlotInvariantWithSpeculation(t *testing.T) {
	eng, jobs := slotFixture(t, 25000)
	eng.Speculation = true
	adv := cluster.NewAdversary(cluster.FaultSlow, 1.0, 2)
	adv.SlowFactor = 25
	eng.Cluster.Nodes()[2].Adversary = adv
	js, err := eng.Submit(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !js.Done {
		t.Fatal("job incomplete")
	}
	if got := eng.FreeSlotsTotal(); got != eng.Cluster.TotalSlots() {
		t.Errorf("free slots after speculative run = %d, want %d", got, eng.Cluster.TotalSlots())
	}
}

func TestSlotInvariantSpeculationRescuedOmission(t *testing.T) {
	eng, jobs := slotFixture(t, 25000)
	eng.Speculation = true
	if err := eng.Cluster.SetAdversary("node-001", cluster.FaultOmission, 0.6, 7); err != nil {
		t.Fatal(err)
	}
	js, err := eng.Submit(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if js.Done {
		// Hung originals were rescued; their slots must be back.
		if got := eng.FreeSlotsTotal(); got != eng.Cluster.TotalSlots() {
			t.Errorf("free slots = %d, want %d", got, eng.Cluster.TotalSlots())
		}
	}
}

func TestMetricsCPUIncludesLosingAttempts(t *testing.T) {
	// Speculative duplicates burn CPU even when they lose: a straggler
	// run with speculation costs at least as much CPU as a fully honest
	// run of the same workload (the duplicated work plus the slow
	// attempt's inflated duration are all accounted).
	run := func(straggler, spec bool) (int64, int64) {
		eng, jobs := slotFixture(t, 25000)
		eng.Speculation = spec
		if straggler {
			adv := cluster.NewAdversary(cluster.FaultSlow, 1.0, 2)
			adv.SlowFactor = 25
			eng.Cluster.Nodes()[2].Adversary = adv
		}
		if _, err := eng.Submit(jobs[0]); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return eng.Metrics.CPUTimeUs, eng.Metrics.SpeculativeTasks
	}
	honest, _ := run(false, false)
	with, backups := run(true, true)
	if backups == 0 {
		t.Skip("no speculation triggered in this layout")
	}
	if with <= honest {
		t.Errorf("straggler+speculation CPU %d should exceed honest CPU %d", with, honest)
	}
}
