package core

import (
	"fmt"
	"slices"
)

// VerifierLog holds, run by run, every event a controller's verifier
// applied and the decisions each one produced.
type VerifierLog struct {
	cfg  Config
	runs []verifierRun
}

type verifierRun struct {
	topology []verdict
	events   []event
	ds       [][]decision
}

// TapVerifier logs every event c's verifier applies from now on.
func TapVerifier(c *Controller) *VerifierLog {
	l := &VerifierLog{cfg: c.Cfg}
	v := c.v
	var first *verdict // a run starts over a fresh verdict slice
	v.tap = func(ev event, ds []decision) {
		if &v.subs[0] != first {
			first = &v.subs[0]
			topology := make([]verdict, len(v.subs))
			for i, s := range v.subs {
				topology[i] = verdict{id: s.id, upstream: s.upstream, audits: s.audits}
			}
			l.runs = append(l.runs, verifierRun{topology: topology})
		}
		run := &l.runs[len(l.runs)-1]
		run.events = append(run.events, ev)
		run.ds = append(run.ds, slices.Clone(ds))
	}
	return l
}

// Replay applies each logged run's events, in order, to a fresh verifier
// over the run's topology. It returns how many events and decisions it
// replayed, or an error naming the first event whose decisions differ
// from the ones the run made.
func (l *VerifierLog) Replay() (events, decisions int, err error) {
	for ri, run := range l.runs {
		v := newVerifier(l.cfg)
		v.reset(slices.Clone(run.topology))
		for i, ev := range run.events {
			start := len(v.out)
			v.apply(ev)
			if got := v.out[start:]; !slices.Equal(got, run.ds[i]) {
				return events, decisions, fmt.Errorf("run %d, event %d (%+v): replay decided %+v, the run decided %+v",
					ri, i, ev, got, run.ds[i])
			}
			events++
			decisions += len(run.ds[i])
		}
	}
	return events, decisions, nil
}
