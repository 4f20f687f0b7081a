package verify

import (
	"fmt"
	"sort"
	"sync"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
)

// Category buckets a suspicion level s (paper §6.3): None (s = 0), Low
// (0 < s <= 0.33), Med (0.33 < s < 0.66), High (s >= 0.66).
type Category uint8

// Suspicion categories.
const (
	None Category = iota
	Low
	Med
	High
)

// String names the category.
func (c Category) String() string {
	switch c {
	case None:
		return "none"
	case Low:
		return "low"
	case Med:
		return "med"
	case High:
		return "high"
	}
	return "unknown"
}

// Categorize maps a suspicion level to its bucket.
func Categorize(s float64) Category {
	switch {
	case s <= 0:
		return None
	case s <= 0.33:
		return Low
	case s < 0.66:
		return Med
	default:
		return High
	}
}

type nodeStats struct {
	jobs   int
	faults int
}

// SuspicionTable tracks per-node suspicion s = faults/jobs (§4.1) and
// implements the resource manager's inclusion list: nodes whose suspicion
// exceeds the configured threshold are excluded from further scheduling;
// only a fresh table re-admits them (§4.2).
type SuspicionTable struct {
	mu sync.Mutex
	// Threshold above which a node leaves the inclusion list; <= 0
	// disables eviction.
	threshold float64
	stats     map[cluster.NodeID]*nodeStats
	excluded  map[cluster.NodeID]bool

	// Audit, when set, receives a score event whenever a node's
	// suspicion level crosses into a different category. Nil disables
	// logging.
	Audit *analyze.AuditTrail
}

// NewSuspicionTable builds an empty table with the given eviction
// threshold (0 disables eviction).
func NewSuspicionTable(threshold float64) *SuspicionTable {
	return &SuspicionTable{
		threshold: threshold,
		stats:     make(map[cluster.NodeID]*nodeStats),
		excluded:  make(map[cluster.NodeID]bool),
	}
}

func (t *SuspicionTable) get(n cluster.NodeID) *nodeStats {
	s := t.stats[n]
	if s == nil {
		s = &nodeStats{}
		t.stats[n] = s
	}
	return s
}

// RecordJob counts one completed job on each node of a job cluster.
func (t *SuspicionTable) RecordJob(nodes []cluster.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range nodes {
		before := Categorize(t.level(n))
		t.get(n).jobs++
		t.auditScore(n, before)
	}
}

// RecordFault raises the fault count of every node involved in a job
// cluster that returned an incorrect (or missing) digest.
func (t *SuspicionTable) RecordFault(nodes []cluster.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range nodes {
		before := Categorize(t.level(n))
		s := t.get(n)
		s.faults++
		if t.threshold > 0 && t.level(n) > t.threshold {
			t.excluded[n] = true
		}
		t.auditScore(n, before)
	}
}

// auditScore logs a score event if n's suspicion category changed from
// before. Called with the lock held.
func (t *SuspicionTable) auditScore(n cluster.NodeID, before Category) {
	if t.Audit == nil {
		return
	}
	after := Categorize(t.level(n))
	if after == before {
		return
	}
	s := t.stats[n]
	detail := fmt.Sprintf("s=%.2f (%d faults / %d jobs) %s→%s",
		t.level(n), s.faults, s.jobs, before, after)
	if t.excluded[n] {
		detail += ", excluded from scheduling"
	}
	t.Audit.Add(analyze.AuditScore, []cluster.NodeID{n}, detail)
}

// level computes s with the lock held.
func (t *SuspicionTable) level(n cluster.NodeID) float64 {
	s := t.stats[n]
	if s == nil || s.jobs == 0 {
		if s != nil && s.faults > 0 {
			return 1 // faulted before completing any job
		}
		return 0
	}
	l := float64(s.faults) / float64(s.jobs)
	if l > 1 {
		l = 1
	}
	return l
}

// Level returns the node's suspicion level in [0, 1].
func (t *SuspicionTable) Level(n cluster.NodeID) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.level(n)
}

// CategoryOf buckets the node's current suspicion level.
func (t *SuspicionTable) CategoryOf(n cluster.NodeID) Category {
	return Categorize(t.Level(n))
}

// Excluded reports whether the node fell off the inclusion list.
func (t *SuspicionTable) Excluded(n cluster.NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.excluded[n]
}

// Histogram counts nodes per suspicion category (only nodes with history
// appear). Figures 12 and 13 plot this over time.
func (t *SuspicionTable) Histogram() map[Category]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := make(map[Category]int)
	for n := range t.stats {
		h[Categorize(t.level(n))]++
	}
	return h
}

// Suspects returns nodes with non-zero suspicion, most suspicious first
// (ties by node ID for determinism).
func (t *SuspicionTable) Suspects() []cluster.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []cluster.NodeID
	for n := range t.stats {
		if t.level(n) > 0 {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		li, lj := t.level(out[i]), t.level(out[j])
		if li != lj {
			return li > lj
		}
		return out[i] < out[j]
	})
	return out
}
