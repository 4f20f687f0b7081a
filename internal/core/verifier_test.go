package core

import (
	"testing"

	"clusterbft/internal/digest"
)

// TestVerifierApplyAllocs pins the verifier's steady state at no
// allocation: a repeated vote on a known key that decides nothing, and a
// timeout for an attempt that already verified.
func TestVerifierApplyAllocs(t *testing.T) {
	const sid = "run1-c0-a0"
	v := newVerifier(DefaultConfig())
	v.reset(make([]verdict, 1))
	v.apply(event{kind: evLaunch, sid: sid, policy: PolicyFull, r: 4, jobs: 1})
	vote := func(rep int) event {
		return event{kind: evDigest, sid: sid, report: digest.Report{
			Key: digest.Key{SID: sid, Point: 1, Task: "m0-000"}, Replica: rep, Sum: digest.Sum{1}}}
	}
	for rep := range 4 {
		v.apply(vote(rep))
	}
	again := vote(2)
	if n := testing.AllocsPerRun(100, func() { v.apply(again) }); n != 0 || len(v.out) != 0 {
		t.Errorf("a repeated vote allocates %v times and decides %v, want 0 and nothing", n, v.out)
	}

	// Two replicas complete with equal vectors: f+1 agreement verifies.
	v.apply(event{kind: evJobDone, sid: sid, replica: 0})
	v.apply(event{kind: evJobDone, sid: sid, replica: 1})
	if !v.subs[0].verified {
		t.Fatalf("no verdict after f+1 agreeing completions: %+v", v.out)
	}
	v.out = v.out[:0]
	timeout := event{kind: evTimeout, sid: sid}
	if n := testing.AllocsPerRun(100, func() { v.apply(timeout) }); n != 0 || len(v.out) != 0 {
		t.Errorf("a settled attempt's timeout allocates %v times and decides %v, want 0 and nothing", n, v.out)
	}
}
