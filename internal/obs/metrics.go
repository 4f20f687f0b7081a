package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe on
// a nil receiver (no-ops) and safe for concurrent use: task bodies on
// the worker pool increment counters while the simulation goroutine
// reads others. Sums are order-independent, so concurrent increments do
// not threaten determinism of final values.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations into fixed, registration-time bucket
// boundaries (upper bounds, inclusive, in ascending order) plus an
// implicit +Inf bucket, and tracks sum and count. Observe is nil-safe
// and allocation-free.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	n      atomic.Int64
}

// DurationBucketsUs is a general-purpose set of virtual-microsecond
// latency boundaries: 1ms..100s in roughly 3x steps.
var DurationBucketsUs = []int64{
	1_000, 3_000, 10_000, 30_000, 100_000, 300_000,
	1_000_000, 3_000_000, 10_000_000, 30_000_000, 100_000_000,
}

// NewHistogram returns a standalone histogram with the given ascending
// upper bounds, for components that need bucketed observations without
// a registry (the engine's speculation thresholds, for instance).
func NewHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe folds one value into the histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations; 0 on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observed values; 0 on nil.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the upper bound of the bucket holding the q-th
// observation (0 < q <= 1). The second result is false when the
// histogram is nil, empty, or the quantile falls in the +Inf bucket —
// callers must treat that as "no estimate" rather than a value.
// Bucket upper bounds make this a conservative (over-)estimate, which
// is the right bias for straggler thresholds.
func (h *Histogram) Quantile(q float64) (int64, bool) {
	if h == nil {
		return 0, false
	}
	n := h.n.Load()
	if n == 0 || q <= 0 || q > 1 {
		return 0, false
	}
	target := int64(float64(n)*q + 0.999999)
	if target < 1 {
		target = 1
	}
	if target > n {
		target = n
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= target {
			return b, true
		}
	}
	return 0, false // quantile lives in the +Inf bucket
}

// BucketCount returns the count of bucket i (the one past the last
// bound is the +Inf bucket).
func (h *Histogram) BucketCount(i int) int64 {
	if h == nil || i < 0 || i >= len(h.counts) {
		return 0
	}
	return h.counts[i].Load()
}

// Label is one key=value pair attached to an instrument family member.
type Label struct {
	K string
	V string
}

// seriesKey identifies one instrument: its kind, base name, and the
// canonical label suffix (empty for unlabeled instruments). Keying the
// registry by the full triple lets the same base name carry many label
// sets, and keeps register-or-get semantics per (kind, name, labels).
type seriesKey struct {
	kind   string
	name   string
	suffix string
}

// series is one registered instrument plus the metadata the snapshot
// and exposition encoders need (base name, parsed labels).
type series struct {
	key    seriesKey
	labels []Label
	c      *Counter
	h      *Histogram
	fn     func() int64
}

// Registry is a named collection of instruments. Register-or-get
// methods return the existing instrument when the (kind, name, labels)
// triple is taken, so components created in sequence (e.g. one engine
// per experiment rig) accumulate into shared counters. Func gauges are
// read-only views over external state (the mapred.Metrics compatibility
// view); re-registering a func name replaces the reader.
//
// Labeled families are registered through With: reg.With("policy",
// "quiz").Counter("verify.tasks") creates the series
// verify.tasks{policy="quiz"}. Label resolution happens once at
// registration; the returned instruments are the same atomic types as
// unlabeled ones, so hot-path Add/Observe stays allocation-free.
//
// All methods are nil-safe: a nil *Registry hands out nil instruments,
// which are themselves no-ops, so "metrics off" needs no wiring at all.
type Registry struct {
	mu     sync.Mutex
	series map[seriesKey]*series
	help   map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[seriesKey]*series),
		help:   make(map[string]string),
	}
}

// get registers (or returns the existing) series for key.
func (r *Registry) get(key seriesKey, labels []Label) *series {
	s := r.series[key]
	if s == nil {
		s = &series{key: key, labels: labels}
		r.series[key] = s
	}
	return s
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(seriesKey{kind: KindCounter, name: name}, nil)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Histogram registers (or returns the existing) histogram under name.
// bounds are ascending upper bounds; they are fixed at first
// registration and later bounds arguments for the same name are ignored.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	return r.histogram(name, bounds, nil, "")
}

func (r *Registry) histogram(name string, bounds []int64, labels []Label, suffix string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(seriesKey{kind: KindHist, name: name, suffix: suffix}, labels)
	if s.h == nil {
		b := make([]int64, len(bounds))
		copy(b, bounds)
		s.h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	}
	return s.h
}

// Func registers a read-only gauge computed at snapshot time. Replaces
// any previous func under the same name.
func (r *Registry) Func(name string, fn func() int64) {
	r.fnGauge(name, fn, nil, "")
}

func (r *Registry) fnGauge(name string, fn func() int64, labels []Label, suffix string) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(seriesKey{kind: KindFunc, name: name, suffix: suffix}, labels)
	s.fn = fn
}

// Help records the HELP text rendered for every series of the named
// family by the Prometheus exposition encoder. Plain-text snapshots
// ignore it.
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// View is a registry handle with a fixed label set. Instruments
// registered through a View become members of labeled families; the
// label set is canonicalised (key-sorted, escaped) once, when the View
// is built, so registration through a long-lived View adds no per-call
// label work beyond a map lookup.
//
// A nil View (from a nil Registry) hands out nil instruments, keeping
// the whole chain nil-safe: reg.With("a", "b").Histogram("x",
// bounds).Observe(1) is a no-op when reg is nil.
type View struct {
	r      *Registry
	labels []Label
	suffix string
}

// With returns a View whose instruments carry the given label pairs
// (key1, value1, key2, value2, ...). A trailing odd argument is
// ignored. Keys are sorted, so With("a","1","b","2") and
// With("b","2","a","1") address the same series.
func (r *Registry) With(kv ...string) *View {
	if r == nil {
		return nil
	}
	n := len(kv) / 2
	labels := make([]Label, 0, n)
	for i := 0; i+1 < len(kv); i += 2 {
		labels = append(labels, Label{K: kv[i], V: kv[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].K < labels[j].K })
	return &View{r: r, labels: labels, suffix: labelSuffix(labels)}
}

// Histogram registers (or returns the existing) labeled histogram.
func (v *View) Histogram(name string, bounds []int64) *Histogram {
	if v == nil {
		return nil
	}
	return v.r.histogram(name, bounds, v.labels, v.suffix)
}

// Func registers a labeled read-only gauge computed at snapshot time.
func (v *View) Func(name string, fn func() int64) {
	if v == nil {
		return
	}
	v.r.fnGauge(name, fn, v.labels, v.suffix)
}

// labelSuffix renders labels canonically as {k="v",...} with Prometheus
// value escaping; empty string for an empty label set.
func labelSuffix(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.V))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies Prometheus text-format label escaping:
// backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// Instrument kinds as reported in Sample.Kind.
const (
	KindCounter = "counter"
	KindHist    = "hist"
	KindFunc    = "func"
)

// Sample is one named value of a registry snapshot. Histograms expand
// into one sample per bucket plus _count and _sum. Labels is the
// canonical {k="v",...} suffix, empty for unlabeled instruments.
type Sample struct {
	Name   string
	Labels string
	Kind   string // "counter", "hist", "func"
	Value  int64
}

// sortedSeries returns copies of the registry's series ordered by (name,
// labels, kind). Caller must hold r.mu, and may read the copies after
// releasing it: fnGauge replaces a series' fn under the lock, so a func
// gauge is called through the copy, never through the shared series.
func (r *Registry) sortedSeries() []series {
	out := make([]series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].key, out[j].key
		if a.name != b.name {
			return a.name < b.name
		}
		if a.suffix != b.suffix {
			return a.suffix < b.suffix
		}
		return a.kind < b.kind
	})
	return out
}

// Snapshot reads every instrument into a deterministic sample list,
// sorted by (Name, Labels).
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	all := r.sortedSeries()
	r.mu.Unlock()
	out := make([]Sample, 0, len(all)+4*len(all)/2)
	for _, s := range all {
		switch s.key.kind {
		case KindCounter:
			out = append(out, Sample{Name: s.key.name, Labels: s.key.suffix, Kind: KindCounter, Value: s.c.Value()})
		case KindFunc:
			out = append(out, Sample{Name: s.key.name, Labels: s.key.suffix, Kind: KindFunc, Value: s.fn()})
		case KindHist:
			h, lb := s.h, s.key.suffix
			out = append(out, Sample{Name: s.key.name + "_count", Labels: lb, Kind: KindHist, Value: h.Count()})
			out = append(out, Sample{Name: s.key.name + "_sum", Labels: lb, Kind: KindHist, Value: h.Sum()})
			for i, b := range h.bounds {
				out = append(out, Sample{
					Name: s.key.name + "_le_" + strconv.FormatInt(b, 10), Labels: lb, Kind: KindHist, Value: h.BucketCount(i),
				})
			}
			out = append(out, Sample{Name: s.key.name + "_le_inf", Labels: lb, Kind: KindHist, Value: h.BucketCount(len(h.bounds))})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// RenderText formats the snapshot as an aligned two-column table, one
// series per line, sorted by (name, labels). It shares the Snapshot
// path with the Prometheus encoder, so the file dump and the HTTP
// exposition cannot drift.
func (r *Registry) RenderText() string {
	samples := r.Snapshot()
	width := 0
	for _, s := range samples {
		if n := len(s.Name) + len(s.Labels); n > width {
			width = n
		}
	}
	var b strings.Builder
	for _, s := range samples {
		fmt.Fprintf(&b, "%-*s  %d\n", width, s.Name+s.Labels, s.Value)
	}
	return b.String()
}
