package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"clusterbft/internal/bft"
	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
	"clusterbft/internal/tuple"
)

// Injector binds one Schedule onto the per-layer injection hooks. All
// decisions are pure functions of (event salt, site identity), so a run
// under the same schedule replays identically regardless of worker-pool
// interleaving; the only mutable state is the record of which replica
// namespaces had data mangled, kept for fault-attribution checks.
type Injector struct {
	Sched *Schedule

	mu      sync.Mutex
	mangled map[string]bool // "sid/r<idx>" whose stored/read data was tampered

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
			in.corrupts[ev.Node] = saltedCorrupt(ev.Node, ev.Salt)
		}
	}
	return in
}

// AttachEngine wires task faults, storage mangling and crash/rejoin pairs
// into an engine that has not started running yet.
func (in *Injector) AttachEngine(eng *mapred.Engine) {
	var taskEvents, storeEvents []Event
	for _, ev := range in.Sched.Events {
		switch ev.Kind {
		case Straggler, HangTask, Commission:
			taskEvents = append(taskEvents, ev)
		case MangleRead, MangleWrite, TruncateWrite:
			storeEvents = append(storeEvents, ev)
		case CrashRejoin:
			ev := ev
			eng.After(ev.AtUs, func() { eng.CrashNode(ev.Node) })
			eng.After(ev.AtUs+ev.DownUs, func() { eng.RejoinNode(ev.Node) })
		}
	}
	if len(taskEvents) > 0 {
		eng.TaskHook = in.taskHook(taskEvents)
	}
	if len(storeEvents) > 0 {
		in.attachFS(eng, eng.FS, storeEvents)
	}
}

// taskHook draws the fault overlay for one dispatched attempt. The draw
// site is the engine job ID plus the task ID — both replica- and
// attempt-scoped — so each attempt of each replica rolls independently,
// and a relaunched attempt is not doomed to repeat its predecessor's
// hang.
func (in *Injector) taskHook(events []Event) func(cluster.NodeID, *mapred.Task) mapred.TaskFault {
	return func(node cluster.NodeID, t *mapred.Task) mapred.TaskFault {
		var f mapred.TaskFault
		for _, ev := range events {
			if ev.Node != node {
				continue
			}
			switch ev.Kind {
			case Straggler:
				if ev.Slow > f.SlowFactor {
					f.SlowFactor = ev.Slow
				}
			case HangTask:
				if det(ev.Salt, t.Job.Spec.ID+"/"+t.ID()) < ev.Prob {
					f.Hang = true
				}
			case Commission:
				if f.Corrupt == nil && det(ev.Salt, t.Job.Spec.ID+"/"+t.ID()) < ev.Prob {
					f.Corrupt = in.corrupts[node]
				}
			}
		}
		return f
	}
}

// attachFS wires read/write mangling. Only intra-replica intermediates —
// outputs whose producing job has same-replica consumers — are eligible:
// their corruption surfaces in the consumer's digests and is pinned to
// one replica. Mangling a raw input would hit every replica identically
// (undetectable collusion), and mangling a verification-boundary output
// after its digests were taken would model a broken trusted store, which
// the paper assumes away.
func (in *Injector) attachFS(eng *mapred.Engine, fs *dfs.FS, events []Event) {
	var readEvents, writeEvents []Event
	for _, ev := range events {
		if ev.Kind == MangleRead {
			readEvents = append(readEvents, ev)
		} else {
			writeEvents = append(writeEvents, ev)
		}
	}
	apply := func(events []Event, path string, lines []string) []string {
		repIdx, repKey, ok := replicaOf(path)
		if !ok || len(lines) == 0 {
			return lines
		}
		for _, ev := range events {
			if repIdx != ev.Replica || det(ev.Salt, path) >= ev.Prob {
				continue
			}
			if !eligible(eng, path) {
				continue
			}
			switch ev.Kind {
			case TruncateWrite:
				lines = lines[:len(lines)-1]
			default: // MangleRead, MangleWrite
				// Append a tampered duplicate of the first record, tagged
				// with the replica so two mangled streams are never equal.
				tampered := append([]string(nil), lines...)
				tampered = append(tampered, lines[0]+"\x00"+repKey)
				lines = tampered
			}
			in.mu.Lock()
			in.mangled[repKey] = true
			in.mu.Unlock()
			if len(lines) == 0 {
				break
			}
		}
		return lines
	}
	if len(writeEvents) > 0 {
		fs.WriteHook = func(path string, lines []string) []string {
			return apply(writeEvents, path, lines)
		}
	}
	if len(readEvents) > 0 {
		fs.ReadHook = func(path string, lines []string) []string {
			return apply(readEvents, path, lines)
		}
	}
}

// replicaOf parses the attempt-scoped namespace "x/<sid>/r<idx>/..." and
// returns the replica index plus the "sid/r<idx>" attribution key.
func replicaOf(path string) (int, string, bool) {
	parts := strings.SplitN(path, "/", 4)
	if len(parts) < 4 || parts[0] != "x" || len(parts[2]) < 2 || parts[2][0] != 'r' {
		return 0, "", false
	}
	idx, err := strconv.Atoi(parts[2][1:])
	if err != nil {
		return 0, "", false
	}
	return idx, parts[1] + "/" + parts[2], true
}

// eligible reports whether the path belongs to an output with
// same-replica dependents. Part-file paths resolve through their parent
// directory; tree reads pass the directory itself.
func eligible(eng *mapred.Engine, path string) bool {
	dir := path
	if i := strings.LastIndexByte(path, '/'); i > 0 && strings.HasPrefix(path[i+1:], "part-") {
		dir = path[:i]
	}
	js := eng.JobByOutput(dir)
	return js != nil && js.HasDependents()
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

// WasMangled reports whether the replica behind the "sid/r<idx>" key had
// its stored or read data tampered.
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
	for _, ev := range in.Sched.Events {
		switch ev.Kind {
		case NetDrop, NetDup, NetDelay:
			events = append(events, ev)
		}
	}
	if len(events) == 0 {
		return
	}
	net.Perturb = func(from, to bft.ID, _ bft.Message) bft.Perturbation {
		var p bft.Perturbation
		for _, ev := range events {
			victim := bft.ReplicaID(ev.Replica)
			if from != victim && to != victim {
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

// saltedCorrupt builds a commission fault distinct per victim node: two
// commission-faulty nodes must never produce byte-identical corruption,
// or their replicas could assemble an accidental f+1 agreement the
// verifier has no way to reject. The numeric delta draws from the full
// hash width — an earlier %5 draw collided between nodes one time in
// five, and on all-integer tuples (no string field to carry the node
// tag) two victims then corrupted byte-identically, formed a false f+1
// and got the honest replica blamed.
func saltedCorrupt(node cluster.NodeID, salt uint64) corruptFn {
	delta := int64(det64(salt, string(node))%1_000_000_007) + 1
	tag := fmt.Sprintf("\x00%s", node)
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
