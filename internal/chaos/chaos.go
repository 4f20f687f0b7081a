// Package chaos is the deterministic, seed-driven fault-injection
// subsystem: it generates schedules of faults spanning every layer of
// the stack — node crash-stop and rejoin, task stragglers and hangs,
// commission-faulty task bodies, workers that corrupt or truncate the
// intermediate records they read or write, and BFT message
// drop/duplication/reordering — and injects them through the nil-safe
// hooks the engine and BFT network expose. The store itself is trusted
// (§2.3) and has no injection hook. Everything is a pure function of the
// schedule seed and runs in virtual time, so a campaign of hundreds of
// schedules replays byte-identically at any worker-pool size (the
// Medusa-style fault-and-re-execute evaluation the ROADMAP's robustness
// lane calls for).
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"clusterbft/internal/cluster"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// CrashRejoin fail-stops the victim node at AtUs and rejoins it
	// DownUs later (engine slot accounting must survive both edges).
	CrashRejoin Kind = iota
	// Straggler multiplies the victim node's task durations by Slow.
	Straggler
	// HangTask makes the victim node withhold task results (omission)
	// with per-task probability Prob (per mille).
	HangTask
	// Commission makes the victim node tamper map inputs, with a
	// node-distinct corruption so two victims can never collude into an
	// accidental f+1 agreement.
	Commission
	// MangleRead makes a map task of the victim replica (Replica)
	// corrupt the records it reads of an input a same-replica job
	// produced (per-task draw with probability Prob), salted with the
	// replica so two mangled replicas never agree. The corruption
	// surfaces in that replica's own digests; the store the records came
	// from is trusted (§2.3) and untouched.
	MangleRead
	// MangleWrite makes a task of the victim replica flip the first line
	// of its output, in a job with same-replica dependents, before it
	// digests and seals it.
	MangleWrite
	// TruncateWrite makes such a task drop the last line of its output,
	// under the same rule.
	TruncateWrite
	// NetDrop, NetDup and NetDelay perturb BFT messages touching the
	// victim replica index (Replica) with per-message probability Prob.
	// Schedule generation keeps net victims within the f bound.
	NetDrop
	NetDup
	NetDelay
)

var kindNames = map[Kind]string{
	CrashRejoin:   "crash",
	Straggler:     "straggler",
	HangTask:      "hang",
	Commission:    "commission",
	MangleRead:    "mangle-read",
	MangleWrite:   "mangle-write",
	TruncateWrite: "truncate-write",
	NetDrop:       "net-drop",
	NetDup:        "net-dup",
	NetDelay:      "net-delay",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one fault in a schedule. Which fields matter depends on Kind.
type Event struct {
	Kind    Kind
	Node    cluster.NodeID // victim node (node-scoped kinds)
	Replica int            // victim BFT replica index (net kinds)
	AtUs    int64          // crash instant
	DownUs  int64          // crash duration before rejoin
	Slow    float64        // straggler factor
	Prob    int            // per-mille probability for per-task/per-message draws
	Salt    uint64         // decorrelates this event's deterministic draws
}

func (e Event) String() string {
	switch e.Kind {
	case CrashRejoin:
		return fmt.Sprintf("%s(%s at=%dus down=%dus)", e.Kind, e.Node, e.AtUs, e.DownUs)
	case Straggler:
		return fmt.Sprintf("%s(%s x%.0f)", e.Kind, e.Node, e.Slow)
	case HangTask, Commission:
		return fmt.Sprintf("%s(%s p=%d‰)", e.Kind, e.Node, e.Prob)
	case NetDrop, NetDup, NetDelay:
		return fmt.Sprintf("%s(r%d p=%d‰)", e.Kind, e.Replica, e.Prob)
	default:
		return fmt.Sprintf("%s(p=%d‰)", e.Kind, e.Prob)
	}
}

// Schedule is a deterministic fault plan for one end-to-end run.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Victims returns the sorted set of nodes named by node-scoped events —
// the only nodes fault attribution may legitimately blame for digest
// deviations (storage-mangle blame is tracked per replica by the
// injector instead, since any node may serve the victim replica).
func (s *Schedule) Victims() []cluster.NodeID {
	set := map[cluster.NodeID]bool{}
	for _, e := range s.Events {
		switch e.Kind {
		case CrashRejoin, Straggler, HangTask, Commission:
			set[e.Node] = true
		}
	}
	out := make([]cluster.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the schedule deterministically for reports.
func (s *Schedule) String() string {
	if len(s.Events) == 0 {
		return fmt.Sprintf("seed=%d <clean>", s.Seed)
	}
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return fmt.Sprintf("seed=%d %s", s.Seed, strings.Join(parts, " "))
}

// Profile bounds schedule generation.
type Profile struct {
	// MaxFaults caps events per schedule (at least 1 is drawn unless the
	// generator rolls a clean schedule).
	MaxFaults int
	// MaxVictims caps distinct victim nodes per schedule; 0 means f.
	// Keeping victims at or below the replication margin makes recovery
	// the common case; exhaustion remains a legitimate outcome.
	MaxVictims int
	// CrashWindowUs bounds crash instants; crashes rejoin within the
	// window too, so capacity is always restored by the drain.
	CrashWindowUs int64
}

// Generate derives a schedule from seed alone: same seed, same campaign —
// same schedule, independent of any runtime state. The campaign's
// deployment bounds it: victims are drawn from node-000..node-(Nodes-1),
// and net events target at most f distinct replica indices of the 3f+1
// BFT group.
func Generate(seed int64, c CampaignConfig) *Schedule {
	p, f := c.Profile, c.Core.F
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed}
	if p.MaxFaults <= 0 {
		p.MaxFaults = 3
	}
	maxVictims := p.MaxVictims
	if maxVictims <= 0 {
		maxVictims = f
	}
	if rng.Intn(10) == 0 {
		return s // ~10% clean schedules keep the no-fault baseline honest
	}
	n := 1 + rng.Intn(p.MaxFaults)
	victims := map[cluster.NodeID]bool{}
	netVictims := map[int]bool{}
	// Integrity faults — commission corruption and storage mangling — are
	// the ones that make a replica's digests deviate. The verifier's
	// attribution guarantee only holds while at most f replicas of a job
	// deviate, so a schedule commits to ONE integrity source: either
	// commission events on a single victim node (a node serves at most
	// one replica per sub-graph attempt) or storage mangles on a single
	// victim replica index. Mixing the two — or spreading either across
	// victims — can put two deviant replicas in one job, and two replicas
	// faulty in unrelated ways still collide trivially (an empty chunk
	// digests identically no matter how it was emptied), forming an f+1
	// class with no honest member that the verifier has every right to
	// believe. Omission-family faults (crash, straggler, hang, net) never
	// alter digests and stay bounded only by the victim budgets.
	commissionVictim := cluster.NodeID("")
	storageVictim := -1
	kinds := []Kind{CrashRejoin, Straggler, HangTask, Commission, MangleRead, MangleWrite, TruncateWrite, NetDrop, NetDup, NetDelay}
	for i := 0; i < n; i++ {
		k := kinds[rng.Intn(len(kinds))]
		ev := Event{Kind: k, Salt: rng.Uint64()}
		switch k {
		case CrashRejoin, Straggler, HangTask, Commission:
			node := cluster.NodeID(fmt.Sprintf("node-%03d", rng.Intn(c.Nodes)))
			if k == Commission {
				if storageVictim >= 0 {
					continue // storage already claimed the integrity budget
				}
				if commissionVictim == "" {
					commissionVictim = node
				}
				node = commissionVictim
			}
			if !victims[node] && len(victims) >= maxVictims {
				continue // victim budget spent; drop the event
			}
			victims[node] = true
			ev.Node = node
			switch k {
			case CrashRejoin:
				ev.AtUs = 1_000_000 + rng.Int63n(p.CrashWindowUs/2)
				ev.DownUs = 1_000_000 + rng.Int63n(p.CrashWindowUs/2)
			case Straggler:
				ev.Slow = float64(2 + rng.Intn(7))
			case HangTask:
				ev.Prob = 200 + rng.Intn(800)
			case Commission:
				ev.Prob = 500 + rng.Intn(500)
			}
		case NetDrop, NetDup, NetDelay:
			r := rng.Intn(3*f + 1)
			if !netVictims[r] && len(netVictims) >= f {
				continue // quorum bound: at most f perturbed replicas
			}
			netVictims[r] = true
			ev.Replica = r
			ev.Prob = 100 + rng.Intn(300)
		default:
			if commissionVictim != "" {
				continue // commission already claimed the integrity budget
			}
			if storageVictim < 0 {
				storageVictim = rng.Intn(2)
			}
			ev.Replica = storageVictim
			ev.Prob = 300 + rng.Intn(700)
		}
		s.Events = append(s.Events, ev)
	}
	return s
}

// det is the shared deterministic per-site draw: a pure hash of
// (salt, site) mapped onto [0, 1000). Used for per-task and
// per-message decisions so outcomes depend only on the schedule and the
// site's identity, never on arrival order or host scheduling.
func det(salt uint64, site string) int {
	return int(det64(salt, site) % 1000)
}

// det64 is the full-width draw behind det, exposed separately for uses
// that need a node-unique value rather than a probability (e.g. the
// commission-corruption delta, where two victim nodes colliding onto
// the same value would let their replicas corrupt byte-identically).
func det64(salt uint64, site string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(salt >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(site))
	return h.Sum64()
}
