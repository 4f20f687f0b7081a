package core

import (
	"fmt"
	"reflect"
	"slices"

	"clusterbft/internal/cluster"
	"clusterbft/internal/verify"
)

// VerifierLog holds, run by run, every event a controller's verifier
// applied, the decisions each one produced, table lines included, and
// the tables the verifier wrote.
type VerifierLog struct {
	cfg   Config
	nodes []cluster.NodeID
	susp  *verify.SuspicionTable
	fa    *verify.FaultAnalyzer
	runs  []verifierRun
}

type verifierRun struct {
	seq      int
	audited  bool
	topology []verify.Verdict
	events   []verify.Event
	ds       [][]verify.Decision
	// after is what the tables held when the next run started.
	after tableState
}

// tableState is what a suspicion table and fault analyzer conclude.
type tableState struct {
	histogram map[verify.Category]int
	suspects  []cluster.NodeID
	excluded  []cluster.NodeID
	analyzer  []cluster.NodeID
}

func tablesOf(susp *verify.SuspicionTable, fa *verify.FaultAnalyzer, nodes []cluster.NodeID) tableState {
	st := tableState{histogram: susp.Histogram(), suspects: susp.Suspects(), analyzer: fa.Suspects()}
	for _, n := range nodes {
		if susp.Excluded(n) {
			st.excluded = append(st.excluded, n)
		}
	}
	return st
}

// TapVerifier logs every event c's verifier applies from now on.
func TapVerifier(c *Controller) *VerifierLog {
	v := c.v
	l := &VerifierLog{cfg: c.Cfg, susp: c.Susp, fa: c.FA}
	for _, n := range c.Eng.Cluster.Nodes() {
		l.nodes = append(l.nodes, n.ID)
	}
	v.Tap = func(ev verify.Event, ds []verify.Decision) {
		if ev.Kind == verify.EvStart {
			if n := len(l.runs); n > 0 {
				l.runs[n-1].after = tablesOf(l.susp, l.fa, l.nodes)
			}
			topology := make([]verify.Verdict, len(v.Subs))
			for i, s := range v.Subs {
				topology[i] = verify.Verdict{ID: s.ID, Upstream: s.Upstream, Audits: s.Audits, Tmpls: s.Tmpls}
			}
			l.runs = append(l.runs, verifierRun{seq: c.runSeq, audited: c.audit != nil, topology: topology})
		}
		run := &l.runs[len(l.runs)-1]
		run.events = append(run.events, ev)
		run.ds = append(run.ds, slices.Clone(ds))
	}
	return l
}

// Replay applies each logged run's events, in order, to one fresh
// verifier over fresh tables and the run's topology. It returns how many
// events, decisions and table lines (DLog decisions) it replayed, or an
// error naming the first event whose decisions differ from the ones the
// run made, or the first run after which the tables differ.
func (l *VerifierLog) Replay() (events, decisions, lines int, err error) {
	susp, fa := verify.NewSuspicionTable(l.cfg.SuspicionThreshold), verify.NewFaultAnalyzer(l.cfg.F)
	v := verify.New(l.cfg.params(), susp, fa, l.nodes)
	for ri, run := range l.runs {
		v.Attach(run.audited)
		v.Reset(run.seq, slices.Clone(run.topology))
		for i, ev := range run.events {
			v.Out = v.Out[:0]
			v.Apply(ev)
			if !sameOrEmpty(v.Out, run.ds[i]) {
				return events, decisions, lines, fmt.Errorf("run %d, event %d (%+v): replay decided %+v, the run decided %+v", ri, i, ev, v.Out, run.ds[i])
			}
			events++
			for _, d := range v.Out {
				if d.Kind == verify.DLog {
					lines++
				} else {
					decisions++
				}
			}
		}
		want := run.after
		if ri == len(l.runs)-1 {
			want = tablesOf(l.susp, l.fa, l.nodes)
		}
		if got := tablesOf(susp, fa, l.nodes); !reflect.DeepEqual(got, want) {
			return events, decisions, lines, fmt.Errorf("after run %d the replayed tables hold %+v, the run's %+v", ri, got, want)
		}
	}
	return events, decisions, lines, nil
}

// sameOrEmpty reports whether a and b are deeply equal, or both empty.
func sameOrEmpty[T any](a, b []T) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}
