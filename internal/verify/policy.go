package verify

import (
	"fmt"
	"hash/fnv"
	"io"
)

// Policy selects how a sub-graph's execution is verified. The classic
// ClusterBFT mode replicates every sub-graph r times and matches f+1
// digest vectors; the quiz and deferred policies trade that worst-case
// replication for "1+ε" cost on healthy clusters, escalating back to
// full replication the moment evidence of a fault appears. The ideas
// follow the partial re-execution literature (quiz tasks re-executed
// against recorded inter-stage data; single execution with escalate-on-
// mismatch) composed with this repo's existing digest machinery:
// digests are taken before combining and before storage, so a single
// re-executed task or a storage-boundary stream is directly comparable
// without replaying the whole sub-graph.
type Policy uint8

// Verification policies.
const (
	// PolicyFull is today's behavior: r replicas, f+1 digest agreement.
	PolicyFull Policy = iota + 1
	// PolicyQuiz runs one primary replica and verifies it by re-executing
	// a sampled set of its tasks ("quizzes") on the trusted tier; the
	// recomputed digests must match the primary's reported ones, and the
	// storage-boundary audit digests must be self-consistent. Any
	// mismatch escalates to full replication via the retry machinery.
	PolicyQuiz
	// PolicyDeferred runs one primary replica and verifies it
	// optimistically at completion (downstream work proceeds
	// immediately); quizzes still run and a quiz mismatch — or a
	// downstream sub-graph observing a digest conflict on the shared
	// boundary — revokes the verification and escalates to full
	// replication with a restart cascade.
	PolicyDeferred
	// PolicyAuto lets the verifier choose per sub-graph from
	// suspicion history: any Med/High-suspicion node still on the
	// inclusion list forces PolicyFull, a Low-suspicion history picks
	// PolicyQuiz, and a clean cluster runs PolicyDeferred.
	PolicyAuto
)

// String names the policy with the CLI flag spelling.
func (p Policy) String() string {
	switch p {
	case PolicyFull:
		return "full"
	case PolicyQuiz:
		return "quiz"
	case PolicyDeferred:
		return "deferred"
	case PolicyAuto:
		return "auto"
	default:
		return "policy(?)"
	}
}

// ParsePolicy parses the -verify-policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "full", "full-r":
		return PolicyFull, nil
	case "quiz":
		return PolicyQuiz, nil
	case "deferred":
		return PolicyDeferred, nil
	case "auto":
		return PolicyAuto, nil
	default:
		return 0, fmt.Errorf("verify: unknown verify policy %q (want full, quiz, deferred or auto)", s)
	}
}

// decidePolicy resolves the configured policy for one sub-graph launch.
// PolicyAuto consults the suspicion table: excluded nodes get no work
// anyway, so only nodes still on the inclusion list argue for caution.
func (v *Verifier) decidePolicy() Policy {
	switch v.Policy {
	case 0:
		return PolicyFull
	case PolicyAuto:
	default:
		return v.Policy
	}
	worst := None
	for _, n := range v.nodes {
		if v.susp.Excluded(n) {
			continue
		}
		if cat := v.susp.CategoryOf(n); cat > worst {
			worst = cat
		}
	}
	switch {
	case worst >= Med:
		return PolicyFull
	case worst == Low:
		return PolicyQuiz
	default:
		return PolicyDeferred
	}
}

// quizPick deterministically samples the quiz set: a task is quizzed iff
// an FNV-1a hash of (sid, job, task) lands under fraction. Hashing the
// sid means every attempt resamples — a faulty node cannot learn which
// tasks escape quizzing — while the draw stays byte-replayable for a
// fixed schedule.
func quizPick(sid, job, tid string, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	if fraction >= 1 {
		return true
	}
	h := fnv.New64a()
	for _, s := range [...]string{sid, job, tid} {
		io.WriteString(h, s)
		h.Write([]byte{0xff})
	}
	const buckets = 1 << 20
	return h.Sum64()%buckets < uint64(fraction*buckets)
}
