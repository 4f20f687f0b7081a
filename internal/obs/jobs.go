package obs

import (
	"sort"
	"sync"
)

// JobsBoard is the live job-state surface behind the /jobs endpoints.
// The engine and controller push state transitions into it from the
// simulation goroutine; HTTP handlers read JSON-ready snapshots from
// any goroutine. It is deliberately a plain mutex-guarded mirror — the
// authoritative state stays inside Engine/Controller, which are not
// safe to read concurrently with a run. It is also the one record of a
// sub-graph attempt that outlives the run: the controller's teardown
// forgets every sid everywhere else.
//
// All methods are nil-safe no-ops, so a disabled board costs one nil
// check per hook, like the rest of the obs instruments.
type JobsBoard struct {
	mu      sync.Mutex
	jobs    map[string]*JobStatus
	jobIDs  []string // insertion order, for FIFO eviction
	sids    map[string]*SIDStatus
	sidIDs  []string
	susp    SuspicionStatus
	maxJobs int
	maxDur  int // per-stage retained task durations
}

// Defaults bounding the board's memory on long campaigns.
const (
	defaultBoardMaxJobs      = 4096
	defaultBoardMaxDurations = 2048
)

// JobStatus is the JSON shape of one job (one replica of one stage
// sub-graph run by the engine).
type JobStatus struct {
	ID             string  `json:"id"`
	SID            string  `json:"sid,omitempty"`
	Replica        int     `json:"replica"`
	State          string  `json:"state"` // pending, running, done, killed
	SubmitV        int64   `json:"submit_vus"`
	DoneV          int64   `json:"done_vus,omitempty"`
	MapsTotal      int     `json:"maps_total"`
	MapsDone       int     `json:"maps_done"`
	RedsTotal      int     `json:"reduces_total"`
	RedsDone       int     `json:"reduces_done"`
	TasksRunning   int     `json:"tasks_running"`
	TasksCommitted int     `json:"tasks_committed"`
	TasksLost      int     `json:"tasks_lost"`
	TasksHung      int     `json:"tasks_hung"`
	Progress       float64 `json:"progress"`

	stages map[string]*stageDurations
}

// StageStats summarises one stage's committed task durations.
type StageStats struct {
	Stage    string `json:"stage"`
	Tasks    int    `json:"tasks"`
	MinUs    int64  `json:"min_us"`
	MedianUs int64  `json:"median_us"`
	P95Us    int64  `json:"p95_us"`
	MaxUs    int64  `json:"max_us"`
	SumUs    int64  `json:"sum_us"`
}

// TaskSample is one committed task duration retained for straggler
// analysis.
type TaskSample struct {
	Task  string `json:"task"`
	DurUs int64  `json:"dur_us"`
}

// StragglerReport flags committed tasks of one (job, stage) that took
// more than twice the stage median: a report for a reader, not what the
// engine acts on. Speculative re-launch (mapred's specSweep) judges
// running tasks by a different rule — the youngest live attempt has run
// past twice the smaller of the job's slowest committed sibling and the
// 0.95 quantile committed for the same base job and kind on any replica.
type StragglerReport struct {
	Job        string       `json:"job"`
	Stages     []StageStats `json:"stages"`
	Stragglers []struct {
		Stage string `json:"stage"`
		TaskSample
		MedianUs int64 `json:"stage_median_us"`
	} `json:"stragglers"`
	Truncated bool `json:"truncated,omitempty"`
}

// stageDurations retains up to maxDur committed task durations per
// stage (FIFO window) for straggler reports.
type stageDurations struct {
	samples   []TaskSample
	truncated bool
	sumUs     int64
	tasks     int
	minUs     int64
	maxUs     int64
}

// SIDStatus is the JSON shape of one verification sub-graph attempt
// group, pushed by the controller.
type SIDStatus struct {
	SID            string   `json:"sid"`
	Cluster        int      `json:"cluster"`
	Attempt        int      `json:"attempt"`
	Replicas       int      `json:"replicas"`
	Policy         string   `json:"policy"`
	State          string   `json:"state"` // running, verified, failed, superseded
	Winner         int      `json:"winner,omitempty"`
	FaultyReplicas []int    `json:"faulty_replicas,omitempty"`
	FaultyNodes    []string `json:"faulty_nodes,omitempty"`
}

// SuspicionStatus is the controller's latest suspicion-table summary.
type SuspicionStatus struct {
	Low      int      `json:"low"`
	Med      int      `json:"med"`
	High     int      `json:"high"`
	Suspects []string `json:"suspects,omitempty"`
	Excluded []string `json:"excluded,omitempty"`
}

// NewJobsBoard returns an empty board with default retention bounds.
func NewJobsBoard() *JobsBoard {
	return &JobsBoard{
		jobs:    make(map[string]*JobStatus),
		sids:    make(map[string]*SIDStatus),
		maxJobs: defaultBoardMaxJobs,
		maxDur:  defaultBoardMaxDurations,
	}
}

// job returns (creating if needed) the entry for id. Caller holds mu.
func (b *JobsBoard) job(id string) *JobStatus {
	j := b.jobs[id]
	if j == nil {
		if len(b.jobIDs) >= b.maxJobs {
			// Evict the oldest finished job; if none is finished, the
			// oldest outright — bounded memory beats a perfect window.
			evicted := false
			for i, old := range b.jobIDs {
				if s := b.jobs[old]; s == nil || s.State == "done" || s.State == "killed" {
					delete(b.jobs, old)
					b.jobIDs = append(b.jobIDs[:i], b.jobIDs[i+1:]...)
					evicted = true
					break
				}
			}
			if !evicted {
				delete(b.jobs, b.jobIDs[0])
				b.jobIDs = b.jobIDs[1:]
			}
		}
		j = &JobStatus{ID: id, State: "pending", stages: make(map[string]*stageDurations)}
		b.jobs[id] = j
		b.jobIDs = append(b.jobIDs, id)
	}
	return j
}

// JobSubmitted records a new job entering the engine.
func (b *JobsBoard) JobSubmitted(id, sid string, replica int, at int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	j := b.job(id)
	j.SID, j.Replica, j.SubmitV, j.State = sid, replica, at, "running"
	b.mu.Unlock()
}

// JobStages records the discovered stage shape (maps at submit, reduces
// when the map stage finishes).
func (b *JobsBoard) JobStages(id string, mapsTotal, redsTotal int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	j := b.job(id)
	if mapsTotal >= 0 {
		j.MapsTotal = mapsTotal
	}
	if redsTotal >= 0 {
		j.RedsTotal = redsTotal
	}
	b.mu.Unlock()
}

// TaskStarted moves one task into the running set.
func (b *JobsBoard) TaskStarted(id string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.job(id).TasksRunning++
	b.mu.Unlock()
}

// TaskCommitted settles one committed task: stage progress, duration
// retention for stragglers.
func (b *JobsBoard) TaskCommitted(id, stage, task string, durUs int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	j := b.job(id)
	if j.TasksRunning > 0 {
		j.TasksRunning--
	}
	j.TasksCommitted++
	switch stage {
	case "map":
		j.MapsDone++
	case "reduce":
		j.RedsDone++
	}
	total := j.MapsTotal + j.RedsTotal
	if total > 0 {
		j.Progress = float64(j.MapsDone+j.RedsDone) / float64(total)
	}
	sd := j.stages[stage]
	if sd == nil {
		sd = &stageDurations{minUs: durUs, maxUs: durUs}
		j.stages[stage] = sd
	}
	sd.tasks++
	sd.sumUs += durUs
	if durUs < sd.minUs || sd.tasks == 1 {
		sd.minUs = durUs
	}
	if durUs > sd.maxUs {
		sd.maxUs = durUs
	}
	if len(sd.samples) >= b.maxDur {
		sd.samples = sd.samples[1:]
		sd.truncated = true
	}
	sd.samples = append(sd.samples, TaskSample{Task: task, DurUs: durUs})
	b.mu.Unlock()
}

// TaskLost settles one lost task attempt (raced backup, dead worker).
func (b *JobsBoard) TaskLost(id string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	j := b.job(id)
	if j.TasksRunning > 0 {
		j.TasksRunning--
	}
	j.TasksLost++
	b.mu.Unlock()
}

// TaskHung records a task whose worker died mid-compute; the attempt
// never completes.
func (b *JobsBoard) TaskHung(id string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	j := b.job(id)
	if j.TasksRunning > 0 {
		j.TasksRunning--
	}
	j.TasksHung++
	b.mu.Unlock()
}

// JobDone marks a job completed at virtual time at.
func (b *JobsBoard) JobDone(id string, at int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	j := b.job(id)
	j.State, j.DoneV, j.Progress = "done", at, 1
	b.mu.Unlock()
}

// JobKilled marks a job killed (losing replica, superseded attempt).
func (b *JobsBoard) JobKilled(id string, at int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	j := b.job(id)
	if j.State != "done" {
		j.State, j.DoneV = "killed", at
	}
	b.mu.Unlock()
}

// UpsertSID applies update to sid's verification sub-graph entry under
// the board's lock, creating the entry first (SID set, the oldest one
// evicted at the retention bound) when the board holds none.
func (b *JobsBoard) UpsertSID(sid string, update func(*SIDStatus)) {
	if b == nil || sid == "" {
		return
	}
	b.mu.Lock()
	st := b.sids[sid]
	if st == nil {
		if len(b.sidIDs) >= b.maxJobs {
			delete(b.sids, b.sidIDs[0])
			b.sidIDs = b.sidIDs[1:]
		}
		b.sidIDs = append(b.sidIDs, sid)
		st = &SIDStatus{SID: sid}
		b.sids[sid] = st
	}
	update(st)
	b.mu.Unlock()
}

// SetSuspicion replaces the suspicion summary. The controller pushes
// it whenever blame moves: this package cannot see the table it
// summarizes.
func (b *JobsBoard) SetSuspicion(s SuspicionStatus) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.susp = s
	b.mu.Unlock()
}

// Jobs returns every job's status, ID-sorted.
func (b *JobsBoard) Jobs() []JobStatus {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	out := make([]JobStatus, 0, len(b.jobs))
	for _, j := range b.jobs {
		cp := *j
		cp.stages = nil
		out = append(out, cp)
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Job returns one job's status.
func (b *JobsBoard) Job(id string) (JobStatus, bool) {
	if b == nil {
		return JobStatus{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	j := b.jobs[id]
	if j == nil {
		return JobStatus{}, false
	}
	cp := *j
	cp.stages = nil
	return cp, true
}

// SIDs returns every verification sub-graph entry, sid-sorted.
func (b *JobsBoard) SIDs() []SIDStatus {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	out := make([]SIDStatus, 0, len(b.sids))
	for _, s := range b.sids {
		out = append(out, *s)
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].SID < out[j].SID })
	return out
}

// Suspicion returns the latest suspicion summary.
func (b *JobsBoard) Suspicion() SuspicionStatus {
	if b == nil {
		return SuspicionStatus{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.susp
}

// Stragglers builds the per-stage duration report for one job. A task
// is flagged when its duration exceeds 2x the stage median (and the
// stage has at least 3 committed tasks, so tiny stages don't flag
// their only member).
func (b *JobsBoard) Stragglers(id string) (StragglerReport, bool) {
	if b == nil {
		return StragglerReport{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	j := b.jobs[id]
	if j == nil {
		return StragglerReport{}, false
	}
	// Empty slices, not nil: a job queried before any task commits must
	// serialize as an empty report ("stages": []), never null — and a
	// stage with zero retained samples yields no stats row at all rather
	// than degenerate (NaN/Inf-shaped) quantiles.
	rep := StragglerReport{Job: id, Stages: []StageStats{}}
	rep.Stragglers = make([]struct {
		Stage string `json:"stage"`
		TaskSample
		MedianUs int64 `json:"stage_median_us"`
	}, 0)
	stages := make([]string, 0, len(j.stages))
	for st := range j.stages {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	for _, st := range stages {
		sd := j.stages[st]
		if sd == nil || len(sd.samples) == 0 {
			continue
		}
		med := medianDur(sd.samples)
		rep.Stages = append(rep.Stages, StageStats{
			Stage: st, Tasks: sd.tasks, MinUs: sd.minUs, MedianUs: med,
			P95Us: quantileDur(sd.samples, 0.95),
			MaxUs: sd.maxUs, SumUs: sd.sumUs,
		})
		rep.Truncated = rep.Truncated || sd.truncated
		if sd.tasks < 3 || med <= 0 {
			continue
		}
		for _, smp := range sd.samples {
			if smp.DurUs > 2*med {
				rep.Stragglers = append(rep.Stragglers, struct {
					Stage string `json:"stage"`
					TaskSample
					MedianUs int64 `json:"stage_median_us"`
				}{Stage: st, TaskSample: smp, MedianUs: med})
			}
		}
	}
	return rep, true
}

// medianDur returns the median of the retained duration window.
func medianDur(samples []TaskSample) int64 {
	return quantileDur(samples, 0.5)
}

// quantileDur returns the q-th sample (nearest-rank) of the retained
// duration window; 0 when the window is empty.
func quantileDur(samples []TaskSample, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	ds := make([]int64, len(samples))
	for i, s := range samples {
		ds[i] = s.DurUs
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(float64(len(ds)) * q)
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return ds[idx]
}
