package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestWithCanonicalOrdering: label pairs are key-sorted at View build
// time, so permuted With calls address the same series.
func TestWithCanonicalOrdering(t *testing.T) {
	r := NewRegistry()
	if r.With("b", "2", "a", "1").Histogram("m", nil) != r.With("a", "1", "b", "2").Histogram("m", nil) {
		t.Fatal("permuted label order produced distinct instruments")
	}
	r = NewRegistry()
	r.With("b", "2", "a", "1").Func("m", func() int64 { return 4 })
	r.With("a", "1", "b", "2").Func("m", func() int64 { return 5 })
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d samples, want 1: %+v", len(snap), snap)
	}
	if snap[0].Labels != `{a="1",b="2"}` || snap[0].Value != 5 {
		t.Errorf("sample = %+v, want canonical {a=\"1\",b=\"2\"} = 5", snap[0])
	}
}

// TestLabeledFamilies: the same base name carries many label sets plus
// an unlabeled member, and the snapshot orders members by label suffix.
func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	r.Func("req", func() int64 { return 1 })
	r.With("code", "500").Func("req", func() int64 { return 2 })
	r.With("code", "200").Func("req", func() int64 { return 3 })
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %+v, want 3 members", snap)
	}
	wantLabels := []string{"", `{code="200"}`, `{code="500"}`}
	wantVals := []int64{1, 3, 2}
	for i := range snap {
		if snap[i].Name != "req" || snap[i].Labels != wantLabels[i] || snap[i].Value != wantVals[i] {
			t.Errorf("snap[%d] = %+v, want req%s = %d", i, snap[i], wantLabels[i], wantVals[i])
		}
	}
	text := r.RenderText()
	if !strings.Contains(text, `req{code="500"}`) {
		t.Errorf("RenderText missing labeled member:\n%s", text)
	}
}

// TestLabelValueEscaping: backslash, quote and newline in label values
// are escaped in the canonical suffix (shared by snapshot, text dump
// and Prometheus exposition).
func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.With("path", "a\\b\"c\nd").Func("m", func() int64 { return 1 })
	snap := r.Snapshot()
	want := `{path="a\\b\"c\nd"}`
	if len(snap) != 1 || snap[0].Labels != want {
		t.Fatalf("escaped suffix = %q, want %q", snap[0].Labels, want)
	}
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing escaped label:\n%s", b.String())
	}
	if _, err := ParseExposition(strings.NewReader(b.String())); err != nil {
		t.Errorf("escaped exposition does not re-parse: %v", err)
	}
}

// TestNilViewChain: the whole labeled chain is nil-safe when metrics
// are off.
func TestNilViewChain(t *testing.T) {
	var r *Registry
	v := r.With("a", "1")
	if v != nil {
		t.Fatal("nil registry must hand out a nil view")
	}
	v.Histogram("z", DurationBucketsUs).Observe(1)
	v.Func("w", func() int64 { return 1 })
}

// TestSnapshotRaceHammer drives Snapshot, WriteExposition and RenderText
// against concurrent writers and concurrent label registration; run
// under -race this pins the lock discipline, and the final snapshots pin
// deterministic (name, labels) ordering regardless of registration
// interleaving.
func TestSnapshotRaceHammer(t *testing.T) {
	r := NewRegistry()
	r.Help("hammer.lat", "hammer histogram family")
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: bump pre-registered labeled instruments.
	for w := 0; w < 4; w++ {
		h := r.With("writer", string(rune('a'+w))).Histogram("hammer.lat", []int64{10, 100})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(int64(i % 200))
				}
			}
		}()
	}
	// Registrars: keep creating new family members while readers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.With("lane", string(rune('A'+i%26))).Func("hammer.depth", func() int64 { return int64(i) })
		}
	}()
	// Readers: all three read paths share Snapshot/sortedSeries.
	for rd := 0; rd < 3; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				snap := r.Snapshot()
				for j := 1; j < len(snap); j++ {
					prev, cur := snap[j-1], snap[j]
					if prev.Name > cur.Name || (prev.Name == cur.Name && prev.Labels >= cur.Labels) {
						t.Errorf("snapshot out of order: %v >= %v", prev, cur)
						return
					}
				}
				_ = r.RenderText()
				var b strings.Builder
				if err := r.WriteExposition(&b); err != nil {
					t.Errorf("exposition during hammer: %v", err)
					return
				}
			}
		}()
	}
	// Let the hammer run a bounded amount of work, then stop writers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Readers/registrar are finite; writers stop when told.
	for i := 0; i < 2; i++ {
		snap := r.Snapshot()
		_ = snap
	}
	close(stop)
	<-done

	// Quiesced: two snapshots are identical and the exposition parses.
	s1, s2 := r.Snapshot(), r.Snapshot()
	if len(s1) != len(s2) {
		t.Fatalf("post-hammer snapshots differ in length: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("post-hammer snapshot not deterministic at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseExposition(strings.NewReader(b.String())); err != nil {
		t.Fatalf("post-hammer exposition invalid: %v\n%s", err, b.String())
	}
}

// Labeled hot-path allocation pin: once registered through a View, a
// labeled instrument is the same atomic type as an unlabeled one.
func TestLabeledHistogramObserveAllocs(t *testing.T) {
	h := NewRegistry().With("job", "j1").Histogram("lat", DurationBucketsUs)
	if got := testing.AllocsPerRun(200, func() { h.Observe(12345) }); got != 0 {
		t.Errorf("labeled Histogram.Observe allocs = %v, want 0", got)
	}
}
