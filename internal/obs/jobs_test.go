package obs

import "testing"

// TestUpsertSID: the board's one sub-graph write creates the row it is
// handed an update for, patches the row it already holds, ignores the
// empty sid, is inert on a nil board, and evicts the oldest row — not
// the one being written — at the retention bound.
func TestUpsertSID(t *testing.T) {
	var off *JobsBoard
	off.UpsertSID("s", func(*SIDStatus) { t.Error("update ran on a nil board") })

	b := NewJobsBoard()
	b.maxJobs = 2
	b.UpsertSID("", func(*SIDStatus) { t.Error("update ran for the empty sid") })
	b.UpsertSID("a", func(s *SIDStatus) { s.State, s.Winner = "running", -1 })
	b.UpsertSID("a", func(s *SIDStatus) { s.FaultyReplicas = append(s.FaultyReplicas, 2) })
	b.UpsertSID("a", func(s *SIDStatus) { s.State, s.Winner = "verified", 1 })
	rows := b.SIDs()
	if len(rows) != 1 || rows[0].SID != "a" || rows[0].State != "verified" || rows[0].Winner != 1 || len(rows[0].FaultyReplicas) != 1 {
		t.Fatalf("row after three upserts: %+v", rows)
	}
	b.UpsertSID("b", func(s *SIDStatus) { s.State = "running" })
	b.UpsertSID("c", func(s *SIDStatus) { s.State = "running" })
	rows = b.SIDs()
	if len(rows) != 2 || rows[0].SID != "b" || rows[1].SID != "c" {
		t.Errorf("rows at the bound of 2: %+v, want b and c", rows)
	}
}
