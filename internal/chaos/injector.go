package chaos

import (
	"sort"
	"strconv"
	"sync"

	"clusterbft/internal/bft"
	"clusterbft/internal/cluster"
	"clusterbft/internal/mapred"
	"clusterbft/internal/tuple"
)

// Injector binds one Schedule onto the per-layer injection hooks. All
// decisions are pure functions of (event salt, site identity), so a run
// under the same schedule replays identically regardless of worker-pool
// interleaving; the only mutable state is the record of which replicas'
// workers mangled data, kept for fault-attribution checks.
type Injector struct {
	Sched *Schedule

	mu      sync.Mutex
	mangled map[string]bool // "sid/r<idx>" whose workers tampered with what they read or wrote

	corrupts map[cluster.NodeID]corruptFn
	netSeq   uint64
}

// NewInjector prepares an injector for one schedule. Attach it to each
// layer the run uses; layers without matching events are left untouched
// (their hooks stay nil and cost nothing).
func NewInjector(s *Schedule) *Injector {
	in := &Injector{
		Sched:    s,
		mangled:  make(map[string]bool),
		corrupts: make(map[cluster.NodeID]corruptFn),
	}
	for _, ev := range s.Events {
		if ev.Kind == Commission {
			in.corrupts[ev.Node] = saltedCorrupt(string(ev.Node), ev.Salt)
		}
	}
	return in
}

// AttachEngine wires task faults, worker-side storage mangling and
// crash/rejoin pairs into an engine that has not started running yet.
func (in *Injector) AttachEngine(eng *mapred.Engine) {
	var taskEvents []Event
	for _, ev := range in.Sched.Events {
		switch ev.Kind {
		case Straggler, HangTask, Commission, MangleRead, MangleWrite, TruncateWrite:
			taskEvents = append(taskEvents, ev)
		case CrashRejoin:
			ev := ev
			eng.After(ev.AtUs, func() { eng.CrashNode(ev.Node) })
			eng.After(ev.AtUs+ev.DownUs, func() { eng.RejoinNode(ev.Node) })
		}
	}
	if len(taskEvents) > 0 {
		eng.TaskHook = in.taskHook(eng, taskEvents)
	}
}

// taskHook draws the fault overlay for one dispatched attempt. The draw
// site is the engine job ID plus the task ID — both replica- and
// attempt-scoped — so each attempt of each replica rolls independently,
// and a relaunched attempt is not doomed to repeat its predecessor's
// hang.
//
// The storage kinds act in a worker of the victim replica, on records of
// an intra-replica intermediate: a job whose output same-replica jobs
// consume. A write mangle tampers with such a job's task output before
// the task digests and seals it; a read mangle corrupts a map task's
// input that such a job produced. Either way the deviation surfaces in
// that replica's digests alone and is pinned to it. Mangling a raw input
// would hit every replica identically (undetectable collusion), and the
// store itself is trusted (§2.3): nothing is tampered with after a task
// sealed it.
func (in *Injector) taskHook(eng *mapred.Engine, events []Event) func(cluster.NodeID, *mapred.Task) mapred.TaskFault {
	return func(node cluster.NodeID, t *mapred.Task) mapred.TaskFault {
		var f mapred.TaskFault
		var writes []Event
		site := t.Job.Spec.ID + "/" + t.ID()
		for _, ev := range events {
			switch ev.Kind {
			case Straggler:
				if ev.Node == node && ev.Slow > f.SlowFactor {
					f.SlowFactor = ev.Slow
				}
			case HangTask:
				if ev.Node == node && det(ev.Salt, site) < ev.Prob {
					f.Hang = true
				}
			case Commission:
				if ev.Node == node && f.Corrupt == nil && det(ev.Salt, site) < ev.Prob {
					f.Corrupt = in.corrupts[node]
				}
			case MangleRead:
				if t.Job.Spec.Replica == ev.Replica && f.Corrupt == nil && readsIntermediate(eng, t) && det(ev.Salt, site) < ev.Prob {
					f.Corrupt = in.mangleRead(ev.Salt, replicaKey(t))
				}
			case MangleWrite, TruncateWrite:
				if t.Job.Spec.Replica == ev.Replica && t.Job.HasDependents() && det(ev.Salt, site) < ev.Prob {
					writes = append(writes, ev)
				}
			}
		}
		if len(writes) > 0 {
			f.Tamper = in.mangleWrite(writes, replicaKey(t))
		}
		return f
	}
}

// replicaKey is the "sid/r<idx>" attribution key of t's replica.
func replicaKey(t *mapred.Task) string {
	return t.Job.Spec.SID + "/r" + strconv.Itoa(t.Job.Spec.Replica)
}

// readsIntermediate reports whether t is a map task whose input one of its
// job's same-replica dependencies produced.
func readsIntermediate(eng *mapred.Engine, t *mapred.Task) bool {
	if t.Kind != mapred.MapTask {
		return false
	}
	path := t.Job.Spec.Inputs[t.InputIdx].Path
	for _, dep := range t.Job.Spec.Deps {
		if js := eng.Job(dep); js != nil && js.Spec.Output == path {
			return true
		}
	}
	return false
}

// mangleRead is the Corrupt of a read mangle on the replica behind key:
// a commission-style corruption salted with the replica rather than a
// node, so two mangled replicas never corrupt alike, that records the
// replica as mangled once it touches a value.
func (in *Injector) mangleRead(salt uint64, key string) corruptFn {
	corrupt := saltedCorrupt(key, salt)
	return func(v tuple.Value, cat func(s, suffix string) string) tuple.Value {
		in.mark(key)
		return corrupt(v, cat)
	}
}

// mangleWrite is the Tamper of the write events on the replica behind
// key: each in turn flips the first line, tagging it with the replica so
// two mangled streams are never equal, or drops the last line. Output with
// no lines is left alone and marks nothing.
func (in *Injector) mangleWrite(events []Event, key string) func([]string) []string {
	return func(lines []string) []string {
		for _, ev := range events {
			if len(lines) == 0 {
				break
			}
			if ev.Kind == TruncateWrite {
				lines = lines[:len(lines)-1]
			} else {
				lines[0] += "\x00" + key
			}
			in.mark(key)
		}
		return lines
	}
}

// mark records the replica behind key as mangled.
func (in *Injector) mark(key string) {
	in.mu.Lock()
	in.mangled[key] = true
	in.mu.Unlock()
}

// MangledReplicas returns the sorted "sid/r<idx>" keys whose data this
// injector tampered — the ground truth a campaign checks fault
// attribution against.
func (in *Injector) MangledReplicas() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.mangled))
	for k := range in.mangled {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WasMangled reports whether a worker of the replica behind the
// "sid/r<idx>" key tampered with what it read or wrote.
func (in *Injector) WasMangled(key string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.mangled[key]
}

// AttachNetwork wires message perturbation for the schedule's net events
// into a BFT bus. Each message touching a victim replica draws once per
// matching event from a sequence counter — deterministic because the bus
// runs on a single driving goroutine in virtual time.
func (in *Injector) AttachNetwork(net *bft.Network) {
	var events []Event
	var victims []bft.ID // events[i]'s replica, named once here
	for _, ev := range in.Sched.Events {
		switch ev.Kind {
		case NetDrop, NetDup, NetDelay:
			events = append(events, ev)
			victims = append(victims, bft.ReplicaID(ev.Replica))
		}
	}
	if len(events) == 0 {
		return
	}
	net.Perturb = func(from, to bft.ID, _ bft.Message) bft.Perturbation {
		var p bft.Perturbation
		for i, ev := range events {
			if from != victims[i] && to != victims[i] {
				continue
			}
			in.netSeq++
			if det(ev.Salt, strconv.FormatUint(in.netSeq, 10)) >= ev.Prob {
				continue
			}
			switch ev.Kind {
			case NetDrop:
				p.Drop = true
			case NetDup:
				p.Dup++
			case NetDelay:
				p.ExtraDelayUs += 5_000
			}
		}
		return p
	}
}

// corruptFn is the type of mapred.TaskFault.Corrupt.
type corruptFn = func(v tuple.Value, cat func(s, suffix string) string) tuple.Value

// saltedCorrupt builds a commission fault distinct per victim — a node,
// or the replica a read mangle hits: two commission-faulty nodes must
// never produce byte-identical corruption,
// or their replicas could assemble an accidental f+1 agreement the
// verifier has no way to reject. The numeric delta draws from the full
// hash width — an earlier %5 draw collided between nodes one time in
// five, and on all-integer tuples (no string field to carry the node
// tag) two victims then corrupted byte-identically, formed a false f+1
// and got the honest replica blamed.
func saltedCorrupt(victim string, salt uint64) corruptFn {
	delta := int64(det64(salt, victim)%1_000_000_007) + 1
	tag := "\x00" + victim
	return func(v tuple.Value, cat func(s, suffix string) string) tuple.Value {
		switch v.Kind() {
		case tuple.KindInt:
			return tuple.Int(v.Int() + delta)
		case tuple.KindFloat:
			return tuple.Float(v.Float() + float64(delta))
		case tuple.KindString:
			return tuple.Str(cat(v.Str(), tag))
		default:
			return v
		}
	}
}
