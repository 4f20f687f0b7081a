package core

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"clusterbft/internal/digest"
	"clusterbft/internal/tuple"
)

func report(sid string, rep, point int, task string, chunk int, payload string) digest.Report {
	return digest.Report{
		Key:     digest.Key{SID: sid, Point: point, Task: task, Chunk: chunk},
		Replica: rep,
		Sum:     digest.Of([]tuple.Tuple{{tuple.Str(payload)}}),
	}
}

func TestAgreementUnanimous(t *testing.T) {
	m := NewMatcher(1)
	for rep := 0; rep < 4; rep++ {
		m.Observe(report("s", rep, 1, "m0-000", 0, "same"))
		m.Observe(report("s", rep, 2, "r000", 0, "also"))
	}
	maj, dev, ok := m.Agreement("s", []int{0, 1, 2, 3})
	if !ok {
		t.Fatal("unanimous replicas must agree")
	}
	if !reflect.DeepEqual(maj, []int{0, 1, 2, 3}) || len(dev) != 0 {
		t.Errorf("maj=%v dev=%v", maj, dev)
	}
}

func TestAgreementDeviantDetected(t *testing.T) {
	m := NewMatcher(1)
	for rep := 0; rep < 4; rep++ {
		payload := "good"
		if rep == 2 {
			payload = "evil"
		}
		m.Observe(report("s", rep, 1, "m0-000", 0, payload))
	}
	maj, dev, ok := m.Agreement("s", []int{0, 1, 2, 3})
	if !ok {
		t.Fatal("3 of 4 should agree")
	}
	if !reflect.DeepEqual(maj, []int{0, 1, 3}) || !reflect.DeepEqual(dev, []int{2}) {
		t.Errorf("maj=%v dev=%v", maj, dev)
	}
}

func TestAgreementNoQuorum(t *testing.T) {
	m := NewMatcher(1)
	m.Observe(report("s", 0, 1, "t", 0, "a"))
	m.Observe(report("s", 1, 1, "t", 0, "b"))
	if _, _, ok := m.Agreement("s", []int{0, 1}); ok {
		t.Error("1-1 split with f=1 must not verify")
	}
}

func TestAgreementF0SingleExecution(t *testing.T) {
	m := NewMatcher(0)
	m.Observe(report("s", 0, 1, "t", 0, "solo"))
	maj, _, ok := m.Agreement("s", []int{0})
	if !ok || len(maj) != 1 {
		t.Error("f=0 must accept a single replica")
	}
}

func TestAgreementMissingReportsDiffer(t *testing.T) {
	// A replica missing one digest has a different fingerprint.
	m := NewMatcher(1)
	for rep := 0; rep < 3; rep++ {
		m.Observe(report("s", rep, 1, "t1", 0, "x"))
	}
	m.Observe(report("s", 0, 1, "t2", 0, "y"))
	m.Observe(report("s", 1, 1, "t2", 0, "y"))
	// replica 2 never reported t2
	maj, dev, ok := m.Agreement("s", []int{0, 1, 2})
	if !ok {
		t.Fatal("0 and 1 should agree")
	}
	if !reflect.DeepEqual(maj, []int{0, 1}) || !reflect.DeepEqual(dev, []int{2}) {
		t.Errorf("maj=%v dev=%v", maj, dev)
	}
}

func TestFingerprintOrderIndependence(t *testing.T) {
	m1 := NewMatcher(1)
	m1.Observe(report("s", 0, 1, "a", 0, "p"))
	m1.Observe(report("s", 0, 2, "b", 0, "q"))
	m2 := NewMatcher(1)
	m2.Observe(report("s", 0, 2, "b", 0, "q"))
	m2.Observe(report("s", 0, 1, "a", 0, "p"))
	if m1.Fingerprint("s", 0) != m2.Fingerprint("s", 0) {
		t.Error("fingerprint depends on arrival order")
	}
}

func TestFingerprintComparableAcrossSIDs(t *testing.T) {
	// Re-run attempts carry a new SID but identical digest vectors must
	// fingerprint equal so the controller can compare attempts.
	m := NewMatcher(1)
	m.Observe(report("attempt0", 1, 1, "t", 0, "data"))
	m.Observe(report("attempt1", 0, 1, "t", 0, "data"))
	if m.Fingerprint("attempt0", 1) != m.Fingerprint("attempt1", 0) {
		t.Error("fingerprints must compare across SIDs")
	}
}

// observeAll feeds reports through Observe and returns the cumulative
// ascending set of replicas it flagged — what the controller has marked
// faulty after the last report.
func observeAll(m *Matcher, reports ...digest.Report) []int {
	seen := map[int]bool{}
	for _, r := range reports {
		for _, rep := range m.Observe(r) {
			seen[rep] = true
		}
	}
	out := make([]int, 0, len(seen))
	for rep := range seen {
		out = append(out, rep)
	}
	sort.Ints(out)
	return out
}

func TestKeyDeviantsOnline(t *testing.T) {
	m := NewMatcher(1)
	// Chunk-level early detection: replica 3 deviates on one chunk while
	// replicas still run.
	var stream []digest.Report
	for rep := 0; rep < 4; rep++ {
		payload := "ok"
		if rep == 3 {
			payload = "bad"
		}
		stream = append(stream, report("s", rep, 1, "m0-000", 0, payload))
	}
	if got := observeAll(m, stream...); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("deviants = %v", got)
	}
}

func TestKeyDeviantsNoMajorityYet(t *testing.T) {
	m := NewMatcher(1)
	got := observeAll(m, report("s", 0, 1, "t", 0, "a"), report("s", 1, 1, "t", 0, "b"))
	if len(got) != 0 {
		t.Errorf("no f+1 majority yet, deviants = %v", got)
	}
}

func TestKeyDeviantsAmbiguousQuorum(t *testing.T) {
	// 2 vs 2 on one key with f=1: both sums reach f+1 votes, which is
	// impossible with at most f faulty replicas — the evidence is
	// unusable and nobody may be marked deviant. The pre-fix code picked
	// whichever class map iteration visited first and blamed the other
	// pair, so with two honest replicas and two replicas faulty in
	// unrelated ways (both emitting an empty chunk, which digests
	// identically), the honest pair was blamed half the time.
	m := NewMatcher(1)
	m.Observe(report("s", 0, 1, "r001", 0, "honest"))
	m.Observe(report("s", 3, 1, "r001", 0, "honest"))
	m.Observe(report("s", 1, 1, "r001", 0, "empty"))
	if got := m.Observe(report("s", 2, 1, "r001", 0, "empty")); len(got) != 0 {
		t.Errorf("ambiguous 2v2 quorum produced deviants %v", got)
	}
	// An unambiguous key still convicts: all four agree except replica 2.
	var stream []digest.Report
	for rep := 0; rep < 4; rep++ {
		payload := "ok"
		if rep == 2 {
			payload = "shifted"
		}
		stream = append(stream, report("s", rep, 1, "r000", 0, payload))
	}
	if got := observeAll(m, stream...); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("deviants = %v, want [2]", got)
	}
}

// TestObserveOverwriteMovesVote: a replica re-reporting a key with a
// different sum (a requizzed task, a committed speculative backup) has
// one vote, in the new class. The old class must lose it — a stale vote
// would keep a dissolved quorum alive, or hide a new one.
func TestObserveOverwriteMovesVote(t *testing.T) {
	m := NewMatcher(1)
	key := digest.Key{SID: "s", Point: 1, Task: "r000"}
	// (winner {0,1}, deviant 2): replica 2 is flagged.
	got := observeAll(m,
		report("s", 0, 1, "r000", 0, "good"),
		report("s", 1, 1, "r000", 0, "good"),
		report("s", 2, 1, "r000", 0, "bad"))
	if !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("deviants = %v, want [2]", got)
	}
	// Replica 3 joins "bad": 2v2, ambiguous — nobody, and no agreement.
	if got := m.Observe(report("s", 3, 1, "r000", 0, "bad")); got != nil {
		t.Errorf("2v2 deviants = %v, want none", got)
	}
	if _, _, ok := m.KeyAgreement("s", key); ok {
		t.Error("2v2 key must not agree")
	}
	// Replica 3 re-reports "good": its vote moves, leaving {0,1,3} vs {2}.
	if got := m.Observe(report("s", 3, 1, "r000", 0, "good")); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("after move deviants = %v, want [2]", got)
	}
	sum, reps, ok := m.KeyAgreement("s", key)
	if !ok || !reflect.DeepEqual(reps, []int{0, 1, 3}) || sum != report("s", 0, 1, "r000", 0, "good").Sum {
		t.Errorf("KeyAgreement = %s %v %v, want the good sum from [0 1 3]", sum, reps, ok)
	}
	if m.Reports("s", 3) != 1 {
		t.Errorf("replica 3 holds %d votes on one key, want 1", m.Reports("s", 3))
	}
	if got, _ := m.Lookup("s", 3, key); got != sum {
		t.Errorf("Lookup returns the superseded sum %s", got)
	}
	// Replica 1 defects to "bad": 2v2 again — the earlier winner is gone.
	if got := m.Observe(report("s", 1, 1, "r000", 0, "bad")); got != nil {
		t.Errorf("winner dissolved into 2v2, deviants = %v", got)
	}
	// A moved vote invalidates that replica's memoised fingerprint only.
	fp0, fp1 := m.Fingerprint("s", 0), m.Fingerprint("s", 1)
	m.Observe(report("s", 1, 1, "r000", 0, "good"))
	if m.Fingerprint("s", 1) == fp1 {
		t.Error("fingerprint of a replica whose vote moved was served from the memo")
	}
	if m.Fingerprint("s", 0) != fp0 || m.Fingerprint("s", 1) != fp0 {
		t.Error("replicas 0 and 1 report identical vectors again and must fingerprint equal")
	}
}

// TestForgetDropsTallyAndMemo: Forget reclaims the tally, the per-key
// state and the memoised fingerprints together — a sid reused after
// Forget starts from nothing.
func TestForgetDropsTallyAndMemo(t *testing.T) {
	m := NewMatcher(1)
	key := digest.Key{SID: "s", Point: 1, Task: "t"}
	observeAll(m, report("s", 0, 1, "t", 0, "x"), report("s", 1, 1, "t", 0, "x"))
	before := m.Fingerprint("s", 0)
	m.Forget("s")
	if m.SIDs() != 0 {
		t.Fatalf("SIDs = %d after Forget", m.SIDs())
	}
	if _, _, ok := m.KeyAgreement("s", key); ok {
		t.Error("tally survived Forget")
	}
	if _, ok := m.Lookup("s", 0, key); ok {
		t.Error("vote survived Forget")
	}
	if m.Fingerprint("s", 0) == before {
		t.Error("memoised fingerprint survived Forget")
	}
	// One fresh vote must not meet the forgotten one and reach f+1.
	if got := m.Observe(report("s", 2, 1, "t", 0, "y")); got != nil {
		t.Errorf("deviants = %v from a single vote", got)
	}
	if _, _, ok := m.KeyAgreement("s", key); ok {
		t.Error("a single vote agreed with forgotten state")
	}
}

// TestObserveIgnoresOutOfRangeReplica: replica indices the tally cannot
// represent are dropped whole, never stored under another index.
func TestObserveIgnoresOutOfRangeReplica(t *testing.T) {
	m := NewMatcher(0)
	for _, rep := range []int{-1, MaxReplicas, MaxReplicas + 3} {
		if got := m.Observe(report("s", rep, 1, "t", 0, "x")); got != nil {
			t.Errorf("replica %d: deviants = %v", rep, got)
		}
		if m.Reports("s", rep) != 0 || m.SIDs() != 0 {
			t.Errorf("replica %d left state behind", rep)
		}
	}
	if got := m.Observe(report("s", MaxReplicas-1, 1, "t", 0, "x")); got != nil {
		t.Errorf("deviants = %v", got)
	}
	if m.Reports("s", MaxReplicas-1) != 1 {
		t.Error("highest representable replica index was not stored")
	}
}

// TestObserveAllocs pins the steady-state cost: a report on a key the
// sid has already seen allocates nothing, whether it repeats a vote,
// adds a replica's vote or moves one; a new key costs at most one
// allocation amortised (slab and index growth).
func TestObserveAllocs(t *testing.T) {
	const keys = 2000
	reports := make([][4]digest.Report, keys)
	for k := range reports {
		for rep := 0; rep < 4; rep++ {
			reports[k][rep] = report("s", rep, 1, fmt.Sprintf("m0-%04d", k), 0, "same")
		}
	}
	m := NewMatcher(1)
	k := 0
	if avg := testing.AllocsPerRun(keys-1, func() {
		m.Observe(reports[k][0])
		k++
	}); avg > 1 {
		t.Errorf("new key: %.0f allocs per report, want <= 1 amortised", avg)
	}
	for rep := 1; rep < 4; rep++ {
		k = 0
		if avg := testing.AllocsPerRun(keys-1, func() {
			m.Observe(reports[k][rep])
			k++
		}); avg != 0 {
			t.Errorf("seen key, replica %d's first vote: %.0f allocs per report, want 0", rep, avg)
		}
	}
	// Repeating a vote is a no-op; moving one between two existing
	// classes (no f+1 class on this key, so no deviants to return)
	// rewrites two bitmasks.
	again := reports[7][2]
	if avg := testing.AllocsPerRun(1000, func() { m.Observe(again) }); avg != 0 {
		t.Errorf("repeated vote: %.0f allocs per report, want 0", avg)
	}
	flip := [2]digest.Report{report("s", 0, 2, "solo", 0, "a"), report("s", 0, 2, "solo", 0, "b")}
	m.Observe(flip[0])
	m.Observe(flip[1])
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		m.Observe(flip[i&1])
		i++
	}); avg != 0 {
		t.Errorf("moved vote: %.0f allocs per report, want 0", avg)
	}
}

func TestReportsAndForget(t *testing.T) {
	m := NewMatcher(1)
	m.Observe(report("s", 0, 1, "t", 0, "x"))
	m.Observe(report("s", 0, 1, "t", 1, "y"))
	if m.Reports("s", 0) != 2 {
		t.Errorf("Reports = %d", m.Reports("s", 0))
	}
	m.Forget("s")
	if m.Reports("s", 0) != 0 {
		t.Error("Forget did not clear state")
	}
}

func TestAgreementTieBreaksByLowestReplica(t *testing.T) {
	// 2 vs 2 with f=1: both groups have size 2 >= f+1; the group holding
	// the lowest replica index wins deterministically.
	m := NewMatcher(1)
	m.Observe(report("s", 0, 1, "t", 0, "alpha"))
	m.Observe(report("s", 3, 1, "t", 0, "alpha"))
	m.Observe(report("s", 1, 1, "t", 0, "beta"))
	m.Observe(report("s", 2, 1, "t", 0, "beta"))
	maj, _, ok := m.Agreement("s", []int{0, 1, 2, 3})
	if !ok {
		t.Fatal("size-2 group with f=1 verifies")
	}
	if maj[0] != 0 {
		t.Errorf("majority = %v, want the group containing replica 0", maj)
	}
}

// BenchmarkMatcherObserve measures one digest report through the online
// check: one sid at r=4, honest replicas plus replica 3 deviating on
// every 16th key. One op is one full stream (records/op reports), so
// ns/op divided by records/op is the per-report cost — the 100k-key row
// is there to show it does not grow with the reports a sid has filed.
func BenchmarkMatcherObserve(b *testing.B) {
	for _, keys := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			good, bad := sha256.Sum256([]byte("good")), sha256.Sum256([]byte("bad"))
			stream := make([]digest.Report, 0, 4*keys)
			for k := 0; k < keys; k++ {
				key := digest.Key{SID: "run1-c0-a0", Point: 1, Task: fmt.Sprintf("m0-%03d", k/100), Chunk: k % 100}
				for rep := 0; rep < 4; rep++ {
					sum := good
					if rep == 3 && k%16 == 0 {
						sum = bad
					}
					stream = append(stream, digest.Report{Key: key, Replica: rep, Sum: sum})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			flagged := 0
			for i := 0; i < b.N; i++ {
				m := NewMatcher(1)
				for _, r := range stream {
					flagged += len(m.Observe(r))
				}
			}
			if want := b.N * ((keys + 15) / 16); flagged != want {
				b.Fatalf("flagged %d deviant votes, want %d", flagged, want)
			}
			b.ReportMetric(float64(len(stream)), "records/op")
		})
	}
}
