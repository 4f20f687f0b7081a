package core

import (
	"fmt"
	"reflect"
	"slices"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
)

// VerifierLog holds, run by run, every event a controller's verifier
// applied, the decisions each one produced and the table lines logged
// meanwhile, and the tables the verifier wrote.
type VerifierLog struct {
	cfg   Config
	nodes []*cluster.Node
	susp  *SuspicionTable
	fa    *FaultAnalyzer
	runs  []verifierRun
}

type verifierRun struct {
	seq      int
	audited  bool
	topology []verdict
	events   []event
	ds       [][]decision
	lines    [][]analyze.AuditEvent
	// after is what the tables held when the next run started.
	after tableState
}

// tableState is what the verifier's suspicion table and fault analyzer
// conclude.
type tableState struct {
	histogram map[Category]int
	suspects  []cluster.NodeID
	excluded  []cluster.NodeID
	analyzer  []cluster.NodeID
}

func tablesOf(v *verifier) tableState {
	st := tableState{histogram: v.susp.Histogram(), suspects: v.susp.Suspects(), analyzer: v.fa.Suspects()}
	for _, n := range v.nodes {
		if v.susp.Excluded(n.ID) {
			st.excluded = append(st.excluded, n.ID)
		}
	}
	return st
}

// TapVerifier logs every event c's verifier applies from now on.
func TapVerifier(c *Controller) *VerifierLog {
	v := c.v
	l := &VerifierLog{cfg: c.Cfg, nodes: v.nodes, susp: v.susp, fa: v.fa}
	v.tap = func(ev event, ds []decision, lines []analyze.AuditEvent) {
		if ev.kind == evStart {
			if n := len(l.runs); n > 0 {
				l.runs[n-1].after = tablesOf(v)
			}
			topology := make([]verdict, len(v.subs))
			for i, s := range v.subs {
				topology[i] = verdict{id: s.id, upstream: s.upstream, audits: s.audits, tmpls: s.tmpls}
			}
			l.runs = append(l.runs, verifierRun{seq: v.runSeq, audited: v.log != nil, topology: topology})
		}
		run := &l.runs[len(l.runs)-1]
		run.events = append(run.events, ev)
		// Count each decision's lines from the event's first one.
		first := len(v.lines) - len(lines)
		ds = slices.Clone(ds)
		for i := range ds {
			ds[i].logged -= first
		}
		run.ds = append(run.ds, ds)
		run.lines = append(run.lines, slices.Clone(lines))
	}
	return l
}

// Replay applies each logged run's events, in order, to one fresh
// verifier over fresh tables and the run's topology. It returns how many
// events, decisions and table lines it replayed, or an error naming the
// first event whose decisions or lines differ from the ones the run
// made, or the first run after which the tables differ.
func (l *VerifierLog) Replay() (events, decisions, lines int, err error) {
	v := newVerifier(l.cfg, NewSuspicionTable(l.cfg.SuspicionThreshold), NewFaultAnalyzer(l.cfg.F), l.nodes)
	for ri, run := range l.runs {
		v.attach(run.audited)
		v.reset(run.seq, slices.Clone(run.topology))
		for i, ev := range run.events {
			v.out, v.lines = v.out[:0], v.lines[:0]
			v.apply(ev)
			if !sameOrEmpty(v.out, run.ds[i]) || !sameOrEmpty(v.lines, run.lines[i]) {
				return events, decisions, lines, fmt.Errorf("run %d, event %d (%+v): replay decided %+v logging %v, the run decided %+v logging %v",
					ri, i, ev, v.out, v.lines, run.ds[i], run.lines[i])
			}
			events++
			decisions += len(run.ds[i])
			lines += len(run.lines[i])
		}
		want := run.after
		if ri == len(l.runs)-1 {
			want = tablesOf(&verifier{susp: l.susp, fa: l.fa, nodes: l.nodes})
		}
		if got := tablesOf(v); !reflect.DeepEqual(got, want) {
			return events, decisions, lines, fmt.Errorf("after run %d the replayed tables hold %+v, the run's %+v", ri, got, want)
		}
	}
	return events, decisions, lines, nil
}

// sameOrEmpty reports whether a and b are deeply equal, or both empty.
func sameOrEmpty[T any](a, b []T) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}
