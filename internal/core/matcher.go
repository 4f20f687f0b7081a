package core

import (
	"cmp"
	"crypto/sha256"
	"hash"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"clusterbft/internal/digest"
)

// MaxReplicas bounds the replica indices one sub-graph attempt may use:
// a key's vote classes are replica bitmasks in one machine word. The
// controller refuses to launch an attempt wider than this (far beyond
// any 3f+1 degree plus retry escalations); the matcher ignores reports
// outside [0, MaxReplicas).
const MaxReplicas = 64

// Matcher is the verifier's digest store (§4.1): it collects digest
// reports from replicas and asserts that at least f+1 corresponding
// digests match. Matching happens at two granularities:
//
//   - per key (approximate, online): as soon as f+1 replicas agree on one
//     chunk, any replica reporting a different sum for that chunk is a
//     commission fault — detection can start before sub-jobs complete;
//   - per replica (offline): a completed replica's full digest vector is
//     rolled into a fingerprint; f+1 equal fingerprints verify the
//     sub-graph.
//
// State is a per-key vote tally maintained as reports arrive: each key
// of a sid holds its vote classes (sum -> replica bitmask), so the
// online check of one report reads the classes of that report's key and
// nothing else. The per-replica views (Lookup, Reports, QuizAgrees,
// Fingerprint) are answered from the same tally through a per-replica
// list of the keys it voted on.
type Matcher struct {
	f     int
	bySID map[string]*sidVotes

	// fingerprint scratch, reused across calls
	hash hash.Hash
	buf  []byte
}

// voteKey is digest.Key without the SID: tallies are already per sid.
type voteKey struct {
	point int
	task  string
	chunk int
}

func voteKeyOf(k digest.Key) voteKey { return voteKey{k.Point, k.Task, k.Chunk} }

func (a voteKey) compare(b voteKey) int {
	if c := cmp.Compare(a.point, b.point); c != 0 {
		return c
	}
	if c := strings.Compare(a.task, b.task); c != 0 {
		return c
	}
	return cmp.Compare(a.chunk, b.chunk)
}

// voteClass is one distinct sum reported for a key and the replicas
// currently voting for it. Classes of one key chain through next; a
// class emptied by a vote move stays chained with reps == 0.
type voteClass struct {
	sum  digest.Sum
	reps uint64
	next int32
}

// keyTally heads one key's class chain (-1 when empty).
type keyTally struct {
	key   voteKey
	first int32
}

// repVotes is one replica's view of a sid: the keys it voted on (any
// order; Fingerprint sorts in place) and its memoised fingerprint.
type repVotes struct {
	keys []int32
	fp   digest.Sum
	fpOK bool
}

// sidVotes is all digest state of one sub-graph attempt. keys and
// classes are slabs indexed by the int32 handles above, so a new key
// costs amortised appends rather than per-key map and slice objects.
type sidVotes struct {
	index   map[voteKey]int32
	keys    []keyTally
	classes []voteClass
	reps    []repVotes
}

// NewMatcher builds a matcher asserting f+1 agreement.
func NewMatcher(f int) *Matcher {
	return &Matcher{f: f, bySID: make(map[string]*sidVotes)}
}

// add stores one report: the replica's vote on r.Key joins the class of
// r.Sum, leaving whichever class held its earlier vote on that key (a
// requizzed task or a committed speculative backup re-reports a key).
// It returns the sid's state and the key's handle, nil for a replica
// index the tally cannot represent.
func (m *Matcher) add(r digest.Report) (*sidVotes, int32) {
	if r.Replica < 0 || r.Replica >= MaxReplicas {
		return nil, -1
	}
	st := m.bySID[r.Key.SID]
	if st == nil {
		st = &sidVotes{index: make(map[voteKey]int32)}
		m.bySID[r.Key.SID] = st
	}
	vk := voteKeyOf(r.Key)
	ki, seen := st.index[vk]
	if !seen {
		ki = int32(len(st.keys))
		st.keys = append(st.keys, keyTally{key: vk, first: -1})
		st.index[vk] = ki
	}
	bit := uint64(1) << r.Replica
	held, target := int32(-1), int32(-1)
	for ci := st.keys[ki].first; ci >= 0; ci = st.classes[ci].next {
		c := &st.classes[ci]
		if c.reps&bit != 0 {
			held = ci
		}
		if c.sum == r.Sum {
			target = ci
		}
	}
	if held >= 0 && held == target {
		return st, ki // same vote again: nothing moves, memo stays valid
	}
	for len(st.reps) <= r.Replica {
		st.reps = append(st.reps, repVotes{})
	}
	rv := &st.reps[r.Replica]
	if held >= 0 {
		st.classes[held].reps &^= bit
	} else {
		rv.keys = append(rv.keys, ki)
	}
	if target < 0 {
		target = int32(len(st.classes))
		st.classes = append(st.classes, voteClass{sum: r.Sum, next: st.keys[ki].first})
		st.keys[ki].first = target
	}
	st.classes[target].reps |= bit
	rv.fpOK = false
	return st, ki
}

// Observe stores r and runs the online per-key check (approximate,
// offline comparison, §3.3) on r.Key: when exactly one sum holds f+1
// replica votes, every replica voting a different sum for the key is
// deviant — a commission fault flagged before replicas finish. The
// result is ascending and nil when nobody deviates.
//
// Checking r.Key alone is complete, not approximate: a report changes
// the vote classes of its own key only, so every other key's deviants
// were already returned when that key's last report arrived.
//
// A key where TWO sums reach f+1 votes yields no deviants. With at most
// f faulty replicas every f+1 class contains an honest replica, and
// honest replicas agree — so two qualifying classes prove the fault
// budget was exceeded for this key and the evidence is unusable.
// Short chunks make the case practical, not hypothetical: two replicas
// faulty in unrelated ways (a truncated partition, a corruption that
// shifted a record into another partition) both emit an EMPTY stream
// for the key, and empty streams share the digest of no input. Picking
// a winner there would blame honest replicas.
func (m *Matcher) Observe(r digest.Report) []int {
	st, ki := m.add(r)
	if st == nil {
		return nil
	}
	winner, ok := st.winner(ki, m.f)
	if !ok {
		return nil
	}
	var others uint64
	for ci := st.keys[ki].first; ci >= 0; ci = st.classes[ci].next {
		if ci != winner {
			others |= st.classes[ci].reps
		}
	}
	return maskReplicas(others)
}

// winner returns the class of key ki holding at least f+1 votes, and
// ok=false when no class or more than one class does.
func (st *sidVotes) winner(ki int32, f int) (int32, bool) {
	win := int32(-1)
	for ci := st.keys[ki].first; ci >= 0; ci = st.classes[ci].next {
		if bits.OnesCount64(st.classes[ci].reps) >= f+1 {
			if win >= 0 {
				return -1, false // ambiguous
			}
			win = ci
		}
	}
	return win, win >= 0
}

// maskReplicas lists the replica indices set in mask, ascending.
func maskReplicas(mask uint64) []int {
	if mask == 0 {
		return nil
	}
	out := make([]int, 0, bits.OnesCount64(mask))
	for ; mask != 0; mask &= mask - 1 {
		out = append(out, bits.TrailingZeros64(mask))
	}
	return out
}

// votes returns sid's state and replica's view of it, nil when the
// replica has filed nothing under sid.
func (m *Matcher) votes(sid string, replica int) (*sidVotes, *repVotes) {
	st := m.bySID[sid]
	if st == nil || replica < 0 || replica >= len(st.reps) {
		return nil, nil
	}
	return st, &st.reps[replica]
}

// sumOf returns the sum replica currently votes for key ki.
func (st *sidVotes) sumOf(ki int32, replica int) (digest.Sum, bool) {
	if replica < 0 {
		return digest.Sum{}, false
	}
	bit := uint64(1) << replica // 0 from MaxReplicas up: never set
	for ci := st.keys[ki].first; ci >= 0; ci = st.classes[ci].next {
		if st.classes[ci].reps&bit != 0 {
			return st.classes[ci].sum, true
		}
	}
	return digest.Sum{}, false
}

// Reports returns how many digests replica has filed under sid.
func (m *Matcher) Reports(sid string, replica int) int {
	_, rv := m.votes(sid, replica)
	if rv == nil {
		return 0
	}
	return len(rv.keys)
}

// Fingerprint rolls a replica's digest vector for sid into one sum,
// iterating keys in sorted order so equal vectors give equal prints.
// The result is memoised per (sid, replica) and recomputed only after
// an Observe changed one of that replica's votes.
func (m *Matcher) Fingerprint(sid string, replica int) digest.Sum {
	st, rv := m.votes(sid, replica)
	if rv == nil {
		return sha256.Sum256(nil)
	}
	if rv.fpOK {
		return rv.fp
	}
	slices.SortFunc(rv.keys, func(a, b int32) int {
		return st.keys[a].key.compare(st.keys[b].key)
	})
	if m.hash == nil {
		m.hash = sha256.New()
	}
	m.hash.Reset()
	for _, ki := range rv.keys {
		k := &st.keys[ki].key
		sum, _ := st.sumOf(ki, replica)
		b := strconv.AppendInt(m.buf[:0], int64(k.point), 10)
		b = append(b, '|')
		b = append(b, k.task...)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(k.chunk), 10)
		b = append(b, '|')
		b = append(b, sum[:]...)
		m.hash.Write(b)
		m.buf = b
	}
	m.hash.Sum(rv.fp[:0])
	rv.fpOK = true
	return rv.fp
}

// Agreement groups the given (completed) replicas of sid by fingerprint.
// ok reports whether some group reaches f+1; then majority holds that
// group's replicas (ascending) and deviants every other given replica.
func (m *Matcher) Agreement(sid string, completed []int) (majority, deviants []int, ok bool) {
	groups := make(map[digest.Sum][]int)
	for _, rep := range completed {
		fp := m.Fingerprint(sid, rep)
		groups[fp] = append(groups[fp], rep)
	}
	var best []int
	for _, g := range groups {
		sort.Ints(g)
		if len(g) > len(best) || (len(g) == len(best) && len(g) > 0 && (len(best) == 0 || g[0] < best[0])) {
			best = g
		}
	}
	if len(best) < m.f+1 {
		return nil, nil, false
	}
	inBest := make(map[int]bool, len(best))
	for _, r := range best {
		inBest[r] = true
	}
	for _, r := range completed {
		if !inBest[r] {
			deviants = append(deviants, r)
		}
	}
	sort.Ints(deviants)
	return best, deviants, true
}

// KeyAgreement resolves one exact key of sid: it returns the sum with
// at least f+1 replica votes and the ascending list of agreeing
// replicas. Like Observe, a key where two sums both reach f+1 is
// ambiguous (the fault budget was exceeded) and yields ok=false — the
// checkpoint path must never persist bytes whose agreement evidence is
// unusable.
func (m *Matcher) KeyAgreement(sid string, key digest.Key) (digest.Sum, []int, bool) {
	st := m.bySID[sid]
	if st == nil {
		return digest.Sum{}, nil, false
	}
	ki, seen := st.index[voteKeyOf(key)]
	if !seen {
		return digest.Sum{}, nil, false
	}
	win, ok := st.winner(ki, m.f)
	if !ok {
		return digest.Sum{}, nil, false
	}
	c := &st.classes[win]
	return c.sum, maskReplicas(c.reps), true
}

// Forget drops all state for a sub-graph attempt (after verification or
// abandonment) — tally, per-replica key lists and memoised fingerprints
// together — so long controller runs don't accumulate stale digests.
func (m *Matcher) Forget(sid string) {
	delete(m.bySID, sid)
}

// SIDs returns how many sub-graph attempts currently hold digest state;
// lifecycle tests pin it to prove the controller's Forget sweep bounds
// matcher growth across retries and repeated runs.
func (m *Matcher) SIDs() int { return len(m.bySID) }

// Lookup returns the sum a replica reported for one exact key under sid.
func (m *Matcher) Lookup(sid string, replica int, key digest.Key) (digest.Sum, bool) {
	st, rv := m.votes(sid, replica)
	if rv == nil {
		return digest.Sum{}, false
	}
	ki, seen := st.index[voteKeyOf(key)]
	if !seen {
		return digest.Sum{}, false
	}
	return st.sumOf(ki, replica)
}

// QuizAgrees checks quiz evidence against the primary: every digest the
// quiz replica filed under sid (the re-executed tasks' chunk digests and
// audit output digests — nothing else, since quizzes only run sampled
// tasks) must have been reported with an identical sum by the primary
// replica. A key the primary never reported counts as disagreement: the
// quiz re-derived a stream the primary hid or chunked differently, and
// the always-emitted final chunk makes a shorter honest stream produce a
// missing-key mismatch rather than silence.
func (m *Matcher) QuizAgrees(sid string, primary, quiz int) bool {
	st, qv := m.votes(sid, quiz)
	if qv == nil {
		return true
	}
	for _, ki := range qv.keys {
		qs, _ := st.sumOf(ki, quiz)
		if ps, ok := st.sumOf(ki, primary); !ok || ps != qs {
			return false
		}
	}
	return true
}
