package verify

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"clusterbft/internal/digest"
)

// oracleMatcher is the matcher this package shipped before the
// incremental tally: a plain replica -> key -> sum map per sid, with
// every query answered by scanning it. It is the reference the tally is
// proven equivalent to — in particular KeyDeviants, the whole-sid rescan
// the controller used to run after every report.
type oracleMatcher struct {
	f     int
	bySID map[string]map[int]map[digest.Key]digest.Sum
}

func newOracleMatcher(f int) *oracleMatcher {
	return &oracleMatcher{f: f, bySID: make(map[string]map[int]map[digest.Key]digest.Sum)}
}

func (m *oracleMatcher) Add(r digest.Report) {
	replicas := m.bySID[r.Key.SID]
	if replicas == nil {
		replicas = make(map[int]map[digest.Key]digest.Sum)
		m.bySID[r.Key.SID] = replicas
	}
	sums := replicas[r.Replica]
	if sums == nil {
		sums = make(map[digest.Key]digest.Sum)
		replicas[r.Replica] = sums
	}
	sums[r.Key] = r.Sum
}

func (m *oracleMatcher) Forget(sid string) { delete(m.bySID, sid) }

func (m *oracleMatcher) Reports(sid string, replica int) int {
	return len(m.bySID[sid][replica])
}

func (m *oracleMatcher) Lookup(sid string, replica int, key digest.Key) (digest.Sum, bool) {
	s, ok := m.bySID[sid][replica][key]
	return s, ok
}

func (m *oracleMatcher) Fingerprint(sid string, replica int) digest.Sum {
	sums := m.bySID[sid][replica]
	keys := make([]digest.Key, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Point != b.Point {
			return a.Point < b.Point
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		return a.Chunk < b.Chunk
	})
	h := sha256.New()
	for _, k := range keys {
		s := sums[k]
		fmt.Fprintf(h, "%d|%s|%d|", k.Point, k.Task, k.Chunk)
		h.Write(s[:])
	}
	var out digest.Sum
	h.Sum(out[:0])
	return out
}

// KeyDeviants performs the online per-key check over everything reported
// so far for sid: for each key where exactly one sum has f+1 replica
// votes, any replica with a different sum is deviant; a key where two
// sums reach f+1 is ambiguous and convicts nobody.
func (m *oracleMatcher) KeyDeviants(sid string) []int {
	votes := make(map[digest.Key]map[digest.Sum][]int)
	for rep, sums := range m.bySID[sid] {
		for k, s := range sums {
			if votes[k] == nil {
				votes[k] = make(map[digest.Sum][]int)
			}
			votes[k][s] = append(votes[k][s], rep)
		}
	}
	deviant := make(map[int]bool)
	for _, bysum := range votes {
		var winner []int
		ambiguous := false
		for _, reps := range bysum {
			if len(reps) >= m.f+1 {
				if winner != nil {
					ambiguous = true
				}
				winner = reps
			}
		}
		if winner == nil || ambiguous {
			continue
		}
		inWin := make(map[int]bool, len(winner))
		for _, r := range winner {
			inWin[r] = true
		}
		for _, reps := range bysum {
			for _, r := range reps {
				if !inWin[r] {
					deviant[r] = true
				}
			}
		}
	}
	out := make([]int, 0, len(deviant))
	for r := range deviant {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

func (m *oracleMatcher) KeyAgreement(sid string, key digest.Key) (digest.Sum, []int, bool) {
	votes := make(map[digest.Sum][]int)
	for rep, sums := range m.bySID[sid] {
		if s, ok := sums[key]; ok {
			votes[s] = append(votes[s], rep)
		}
	}
	var winSum digest.Sum
	var winner []int
	for s, reps := range votes {
		if len(reps) >= m.f+1 {
			if winner != nil {
				return digest.Sum{}, nil, false
			}
			winSum, winner = s, reps
		}
	}
	if winner == nil {
		return digest.Sum{}, nil, false
	}
	sort.Ints(winner)
	return winSum, winner, true
}

func (m *oracleMatcher) QuizAgrees(sid string, primary, quiz int) bool {
	prim := m.bySID[sid][primary]
	for k, qs := range m.bySID[sid][quiz] {
		ps, ok := prim[k]
		if !ok || ps != qs {
			return false
		}
	}
	return true
}

// The equivalence stream decoder: byte 0 picks f, byte 1 the replica
// count, then each byte pair is one step over a deliberately tiny key
// and sum space, so repeated keys, vote moves, shared sums and
// ambiguous quorums are the common case rather than the rare one.
var (
	eqSIDs  = []string{"run1-c0-a0", "run1-c0-a1"}
	eqTasks = []string{"m0-000", "r001"}
	// Point -2 is in the audit namespace (negative points), 1 and 2 are
	// ordinary verification points.
	eqPoints = []int{-2, 1, 2}
	eqSums   = []digest.Sum{
		digest.Of(nil), // the empty stream: what unrelated faults collapse to
		sha256.Sum256([]byte("honest")),
		sha256.Sum256([]byte("evil")),
		sha256.Sum256([]byte("other")),
	}
)

func eqKeys(sid string) []digest.Key {
	var keys []digest.Key
	for _, p := range eqPoints {
		for _, task := range eqTasks {
			for chunk := 0; chunk < 2; chunk++ {
				keys = append(keys, digest.Key{SID: sid, Point: p, Task: task, Chunk: chunk})
			}
		}
	}
	return keys
}

// checkObserveEquivalence replays data against the tally matcher and the
// oracle. After every report: the slice Observe returned is strictly
// ascending, and the cumulative set it has returned for the sid equals
// the union of the oracle's whole-sid results so far — equality at every
// step means each replica's first detection lands on the same report
// index, which is what keeps suspicion and audit order unchanged. Every
// read-side query is compared after every step too.
func checkObserveEquivalence(t testing.TB, data []byte) {
	if len(data) < 2 {
		return
	}
	f := int(data[0] % 3)
	replicas := 1 + int(data[1]%6)
	m, o := NewMatcher(f), newOracleMatcher(f)
	got := map[string]map[int]bool{}
	want := map[string]map[int]bool{}
	for _, sid := range eqSIDs {
		got[sid], want[sid] = map[int]bool{}, map[int]bool{}
	}
	keys := map[string][]digest.Key{}
	for _, sid := range eqSIDs {
		keys[sid] = eqKeys(sid)
	}
	for step := 0; 2+2*step+1 < len(data); step++ {
		a, b := data[2+2*step], data[2+2*step+1]
		sid := eqSIDs[int(a>>7)]
		if a&0x7f == 0x7f {
			m.Forget(sid)
			o.Forget(sid)
			got[sid], want[sid] = map[int]bool{}, map[int]bool{}
		} else {
			r := digest.Report{
				Key:     keys[sid][int(a&0x7f)%len(keys[sid])],
				Replica: int(b&0x0f) % replicas,
				Sum:     eqSums[int(b>>4)%len(eqSums)],
			}
			dev := m.Observe(r)
			for i, rep := range dev {
				if i > 0 && dev[i-1] >= rep {
					t.Fatalf("step %d: Observe returned %v, not strictly ascending", step, dev)
				}
				got[sid][rep] = true
			}
			o.Add(r)
			for _, rep := range o.KeyDeviants(sid) {
				want[sid][rep] = true
			}
			if !reflect.DeepEqual(got[sid], want[sid]) {
				t.Fatalf("step %d (f=%d, %d replicas) report %+v: cumulative deviants %v, oracle %v",
					step, f, replicas, r, got[sid], want[sid])
			}
		}
		if len(m.bySID) != len(o.bySID) {
			t.Fatalf("step %d: SIDs = %d, oracle %d", step, len(m.bySID), len(o.bySID))
		}
		for _, s := range eqSIDs {
			// One replica index past the live range and a negative one
			// must read as "never reported" on both sides.
			for rep := -1; rep <= replicas; rep++ {
				if g, w := filed(m, s, rep), o.Reports(s, rep); g != w {
					t.Fatalf("step %d: Reports(%s,%d) = %d, oracle %d", step, s, rep, g, w)
				}
				if g, w := m.Fingerprint(s, rep), o.Fingerprint(s, rep); g != w {
					t.Fatalf("step %d: Fingerprint(%s,%d) = %s, oracle %s", step, s, rep, g, w)
				}
				for _, k := range keys[s] {
					gs, gok := m.Lookup(s, rep, k)
					ws, wok := o.Lookup(s, rep, k)
					if gs != ws || gok != wok {
						t.Fatalf("step %d: Lookup(%s,%d,%s) = %s/%v, oracle %s/%v", step, s, rep, k, gs, gok, ws, wok)
					}
				}
				for q := 0; q < replicas; q++ {
					if g, w := m.QuizAgrees(s, rep, q), o.QuizAgrees(s, rep, q); g != w {
						t.Fatalf("step %d: QuizAgrees(%s,%d,%d) = %v, oracle %v", step, s, rep, q, g, w)
					}
				}
			}
			for _, k := range keys[s] {
				gs, gr, gok := m.KeyAgreement(s, k)
				ws, wr, wok := o.KeyAgreement(s, k)
				if gs != ws || gok != wok || !reflect.DeepEqual(maskReplicas(gr), wr) {
					t.Fatalf("step %d: KeyAgreement(%s) = %s/%v/%v, oracle %s/%v/%v", step, k, gs, gr, gok, ws, wr, wok)
				}
			}
		}
	}
}

// eqStep encodes one report of the equivalence stream.
func eqStep(sid, key, replica, sum int) []byte {
	return []byte{byte(sid<<7 | key), byte(sum<<4 | replica)}
}

func eqStream(f, replicas int, steps ...[]byte) []byte {
	out := []byte{byte(f), byte(replicas - 1)}
	for _, s := range steps {
		out = append(out, s...)
	}
	return out
}

// eqSeeds are the hand-written shapes the fuzzer starts from.
func eqSeeds() [][]byte {
	return [][]byte{
		// 3 honest + 1 deviant on one key, r=4, f=1.
		eqStream(1, 4, eqStep(0, 3, 0, 1), eqStep(0, 3, 1, 1), eqStep(0, 3, 3, 2), eqStep(0, 3, 2, 1)),
		// Two replicas faulty in unrelated ways share the empty-stream
		// sum: 2v2 at f=1 is ambiguous, then a clean key convicts one.
		eqStream(1, 4, eqStep(0, 5, 0, 1), eqStep(0, 5, 3, 1), eqStep(0, 5, 1, 0), eqStep(0, 5, 2, 0),
			eqStep(0, 4, 0, 1), eqStep(0, 4, 1, 1), eqStep(0, 4, 2, 2), eqStep(0, 4, 3, 1)),
		// Quiz replica 1 beside primary 0 at r=1 policy shapes, f=1:
		// never an f+1 class; then the f=0 variant where every vote is one.
		eqStream(1, 2, eqStep(0, 0, 0, 1), eqStep(0, 0, 1, 1), eqStep(0, 1, 0, 1), eqStep(0, 1, 1, 2)),
		eqStream(0, 2, eqStep(0, 0, 0, 1), eqStep(0, 0, 1, 1), eqStep(0, 1, 0, 1), eqStep(0, 1, 1, 2)),
		// A vote that moves: winner/deviant -> ambiguous -> back, with a
		// Forget and a second sid in between.
		eqStream(1, 4, eqStep(0, 2, 0, 1), eqStep(0, 2, 1, 1), eqStep(0, 2, 2, 2), eqStep(0, 2, 3, 1),
			eqStep(0, 2, 3, 2), eqStep(1, 2, 0, 3), eqStep(0, 2, 3, 1), []byte{0x7f, 0}, eqStep(0, 2, 2, 2)),
		// f=2 needs three matching votes, six replicas.
		eqStream(2, 6, eqStep(0, 7, 0, 1), eqStep(0, 7, 1, 1), eqStep(0, 7, 2, 3), eqStep(0, 7, 3, 1),
			eqStep(0, 7, 4, 3), eqStep(0, 7, 5, 3)),
	}
}

func FuzzMatcherObserveEquivalence(f *testing.F) {
	for _, seed := range eqSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkObserveEquivalence(t, data)
	})
}

// TestMatcherObserveEquivalence runs the hand-written seeds and a table
// of random report streams for every f in {0,1,2} and 1..6 replicas.
func TestMatcherObserveEquivalence(t *testing.T) {
	for i, seed := range eqSeeds() {
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) { checkObserveEquivalence(t, seed) })
	}
	rng := rand.New(rand.NewSource(14))
	for f := 0; f <= 2; f++ {
		for replicas := 1; replicas <= 6; replicas++ {
			for round := 0; round < 4; round++ {
				data := make([]byte, 2+2*120)
				rng.Read(data)
				data[0], data[1] = byte(f), byte(replicas-1)
				t.Run(fmt.Sprintf("f%d-r%d-%d", f, replicas, round), func(t *testing.T) {
					checkObserveEquivalence(t, data)
				})
			}
		}
	}
}
