package verify

import (
	"testing"

	"clusterbft/internal/cluster"
)

func ids(ns ...string) []cluster.NodeID {
	out := make([]cluster.NodeID, len(ns))
	for i, n := range ns {
		out[i] = cluster.NodeID(n)
	}
	return out
}

func TestCategorize(t *testing.T) {
	cases := []struct {
		s    float64
		want Category
	}{
		{0, None},
		{-1, None},
		{0.1, Low},
		{0.33, Low},
		{0.34, Med},
		{0.5, Med},
		{0.659, Med},
		{0.66, High},
		{1, High},
	}
	for _, c := range cases {
		if got := Categorize(c.s); got != c.want {
			t.Errorf("Categorize(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestCategoryString(t *testing.T) {
	want := map[Category]string{None: "none", Low: "low", Med: "med", High: "high", Category(9): "unknown"}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestSuspicionLevels(t *testing.T) {
	st := NewSuspicionTable(0)
	st.RecordJob(ids("a", "b"))
	st.RecordJob(ids("a", "b"))
	st.RecordJob(ids("a"))
	st.RecordFault(ids("a"))
	if got := st.Level("a"); got < 0.32 || got > 0.34 {
		t.Errorf("Level(a) = %v, want 1/3", got)
	}
	if st.Level("b") != 0 {
		t.Errorf("Level(b) = %v", st.Level("b"))
	}
	if st.Level("unknown") != 0 {
		t.Error("unknown node should be 0")
	}
}

func TestSuspicionFaultBeforeJob(t *testing.T) {
	st := NewSuspicionTable(0)
	st.RecordFault(ids("x"))
	if st.Level("x") != 1 {
		t.Errorf("fault with no completed jobs should be 1, got %v", st.Level("x"))
	}
}

func TestSuspicionCapped(t *testing.T) {
	st := NewSuspicionTable(0)
	st.RecordJob(ids("a"))
	st.RecordFault(ids("a"))
	st.RecordFault(ids("a"))
	if st.Level("a") != 1 {
		t.Errorf("Level should cap at 1, got %v", st.Level("a"))
	}
}

func TestExclusionThreshold(t *testing.T) {
	st := NewSuspicionTable(0.5)
	st.RecordJob(ids("a", "b"))
	st.RecordFault(ids("a"))
	if !st.Excluded("a") {
		t.Error("node a should fall off the inclusion list (s=1 > 0.5)")
	}
	if st.Excluded("b") {
		t.Error("node b should remain included")
	}
}

func TestExclusionDisabled(t *testing.T) {
	st := NewSuspicionTable(0)
	st.RecordFault(ids("a"))
	if st.Excluded("a") {
		t.Error("threshold 0 must not evict")
	}
}

func TestHistogram(t *testing.T) {
	st := NewSuspicionTable(0)
	for i := 0; i < 4; i++ {
		st.RecordJob(ids("a", "b", "c"))
	}
	st.RecordFault(ids("a")) // 1/4 = 0.25 -> Low
	st.RecordFault(ids("b"))
	st.RecordFault(ids("b"))
	st.RecordFault(ids("b")) // 3/4 = 0.75 -> High
	h := st.Histogram()
	if h[Low] != 1 || h[High] != 1 || h[None] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestSuspectsOrdered(t *testing.T) {
	st := NewSuspicionTable(0)
	st.RecordJob(ids("a", "b", "c"))
	st.RecordJob(ids("a"))
	st.RecordFault(ids("a", "b"))
	got := st.Suspects()
	// b: 1/1 = 1.0; a: 1/2 = 0.5.
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Errorf("Suspects = %v", got)
	}
}

func TestCategoryOf(t *testing.T) {
	st := NewSuspicionTable(0)
	st.RecordJob(ids("a"))
	st.RecordFault(ids("a"))
	if st.CategoryOf("a") != High {
		t.Errorf("CategoryOf(a) = %v", st.CategoryOf("a"))
	}
}
