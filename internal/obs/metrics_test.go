package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	if again := r.Counter("x.count"); again != c {
		t.Error("re-registering a counter name must return the same instrument")
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	h := r.Histogram("c", DurationBucketsUs)
	c.Add(5)
	c.Inc()
	h.Observe(100)
	r.Func("d", func() int64 { return 1 })
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments must read as zero")
	}
	if r.Snapshot() != nil || r.RenderText() != "" {
		t.Error("nil registry must snapshot empty")
	}
	var tr *Tracer
	tr.Record("cat", "trk", "n", 0, 1)
	tr.Emit(Span{})
	tr.EnableWallClock(WallUnixMicros)
	if tr.Len() != 0 || tr.Spans() != nil || tr.WallNow() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer must be inert")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 99, 100, 1001, 5000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	if got := h.Sum(); got != 5+10+11+99+100+1001+5000 {
		t.Fatalf("sum = %d", got)
	}
	wantCounts := []int64{2, 3, 0, 2} // le10, le100, le1000, inf
	for i, want := range wantCounts {
		if got := h.BucketCount(i); got != want {
			t.Errorf("bucket[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(1)
	r.Counter("a.first").Add(2)
	r.Func("m.mid", func() int64 { return 3 })
	r.Func("f.view", func() int64 { return 42 })
	r.Histogram("h.lat", []int64{10}).Observe(4)
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if len(s1) != len(s2) {
		t.Fatal("snapshots differ in length")
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("snapshot not deterministic at %d: %+v vs %+v", i, s1[i], s2[i])
		}
		if i > 0 && s1[i-1].Name >= s1[i].Name {
			t.Fatalf("snapshot not name-sorted: %q >= %q", s1[i-1].Name, s1[i].Name)
		}
	}
	text := r.RenderText()
	for _, want := range []string{"a.first", "f.view", "h.lat_count", "h.lat_le_10", "h.lat_le_inf"} {
		if !strings.Contains(text, want) {
			t.Errorf("RenderText missing %q:\n%s", want, text)
		}
	}
}

func TestCounterConcurrentAdds(t *testing.T) {
	c := NewRegistry().Counter("c")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
}
