package bft

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
)

// traceFields extracts the protocol fields a delivery trace records:
// the view, the sequence number and the replica named in the message.
func traceFields(msg Message) (view, seq uint64, replica ID) {
	switch m := msg.(type) {
	case Request:
		return 0, m.Seq, m.Client
	case PrePrepare:
		return m.View, m.Seq, ""
	case Prepare:
		return m.View, m.Seq, m.Replica
	case Commit:
		return m.View, m.Seq, m.Replica
	case Reply:
		return m.View, m.ReqSeq, m.Replica
	case ViewChange:
		return m.NewView, m.LastSeq, m.Replica
	case NewView:
		return m.View, uint64(len(m.Reproposals)), m.Primary
	}
	return 0, 0, ""
}

// seededPerturb drops, duplicates or delays one message in ten each,
// for messages to or from a victim, drawing from an LCG seeded per
// scenario.
func seededPerturb(seed uint64, victims ...ID) func(from, to ID, _ Message) Perturbation {
	x := seed
	return func(from, to ID, _ Message) Perturbation {
		hit := false
		for _, v := range victims {
			hit = hit || from == v || to == v
		}
		if !hit {
			return Perturbation{}
		}
		x = x*6364136223846793005 + 1442695040888963407
		switch (x >> 33) % 10 {
		case 0:
			return Perturbation{Drop: true}
		case 1:
			return Perturbation{Dup: 1}
		case 2:
			return Perturbation{ExtraDelayUs: 5_000}
		}
		return Perturbation{}
	}
}

// traceScenarios are the runs whose delivered-message trace is pinned:
// clean groups, silent and corrupt members, and seeded perturbation.
var traceScenarios = []struct {
	name  string
	f     int
	setup func(g *Group)
}{
	{"clean-f1", 1, func(*Group) {}},
	{"clean-f2", 2, func(*Group) {}},
	{"silent-primary", 1, func(g *Group) {
		g.Net.Drop = func(from, _ ID, _ Message) bool { return from == ReplicaID(0) }
	}},
	{"silent-backup", 1, func(g *Group) {
		g.Net.Drop = func(from, _ ID, _ Message) bool { return from == ReplicaID(2) }
	}},
	{"corrupt-results", 1, func(g *Group) { g.Replicas[1].CorruptResults = true }},
	{"perturb-backup", 1, func(g *Group) { g.Net.Perturb = seededPerturb(11, ReplicaID(1)) }},
	{"perturb-primary", 1, func(g *Group) { g.Net.Perturb = seededPerturb(12, ReplicaID(0)) }},
	{"perturb-f2", 2, func(g *Group) { g.Net.Perturb = seededPerturb(13, ReplicaID(0), ReplicaID(4)) }},
}

// messageTrace runs 100 invocations through a scenario's group and a
// bounded final drain, hashing every delivery's virtual time, endpoints,
// message type and view, seq and replica fields.
func messageTrace(t *testing.T, f int, setup func(g *Group)) string {
	t.Helper()
	g, _ := newGroup(f)
	setup(g)
	var h hash.Hash = sha256.New()
	g.Net.Trace = func(from, to ID, msg Message) {
		view, seq, replica := traceFields(msg)
		fmt.Fprintf(h, "%d %s>%s %T v%d s%d r%s\n", g.Net.Now(), from, to, msg, view, seq, replica)
	}
	for i := 0; i < 100; i++ {
		op := fmt.Sprintf("op-%d", i)
		res, _, err := g.Invoke([]byte(op))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		fmt.Fprintf(h, "settled %s\n", res)
	}
	g.Net.RunWhile(20_000, nil)
	fmt.Fprintf(h, "drained at %d after %d, %d pending\n", g.Net.Now(), g.Net.Delivered(), g.Net.Pending())
	return hex.EncodeToString(h.Sum(nil))
}

// TestMessageTraceUnchanged pins the delivered-message trace: every
// message, its virtual delivery time and its order, in clean, faulty and
// perturbed groups. Allocation work on the bus and the replicas must
// leave the protocol's behaviour exactly as it is; these digests were
// captured before any of it.
func TestMessageTraceUnchanged(t *testing.T) {
	want := map[string]string{
		"clean-f1":        "ddbc6c92b74626f9a6296338b50d06b33ef674341e768d01a37774aa5e4ae4ea",
		"clean-f2":        "fcf22898fb7d7f6ade5fab7ce1bc333eb89d13f0f0f9bba9e87404bfe4d29f8f",
		"silent-primary":  "e7837487adc8aedf41382fe2c44c3ec0ac1346d9912534db8f88f397d416aa4d",
		"silent-backup":   "d8057119318ff4201903507112314965be21676ea5299b18a2aeaf902c18d78c",
		"corrupt-results": "3841c855aaef6dc8365169f8006640c8f18d4356a51172c8eef2909ab7f0bad2",
		"perturb-backup":  "c128a71abd8a7d7e7d9fc1d10892fcb8ac2ac8e2b39d4f51ed8d5485da4c72d9",
		"perturb-primary": "973ab4afede660d8b0157ea0b0c4b3beff8269bca0d40e165e59019a5e100b26",
		"perturb-f2":      "116cad91457c8195ab8e202f72bee43e81def1500236be35a1e4b6b4afd67ec1",
	}
	for _, sc := range traceScenarios {
		t.Run(sc.name, func(t *testing.T) {
			if got := messageTrace(t, sc.f, sc.setup); got != want[sc.name] {
				t.Errorf("trace digest %s, want %s", got, want[sc.name])
			}
		})
	}
}
