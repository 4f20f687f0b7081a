// Package obs is the unified observability layer: a typed metrics
// registry (counters, fixed-bucket histograms, read-only func
// gauges) and a virtual-time span tracer with deterministic exports.
// Every component of the pipeline — engine, controller, DFS, worker
// pool, BFT tier — registers into one Registry and emits spans into one
// Tracer, so a run can be read as a single timeline instead of a pile of
// ad-hoc counters.
//
// Two properties are load-bearing and tested:
//
//   - Nil safety: every method of every instrument is a no-op on a nil
//     receiver. Components hold possibly-nil *Counter / *Tracer fields
//     and call them unconditionally; "observability off" is the zero
//     value of everything, with no configuration and no branches beyond
//     the nil check.
//
//   - Allocation freedom when disabled (and for counters, also when
//     enabled): the per-record hot paths of the data plane call these
//     hooks, and the AllocsPerRun pins of internal/mapred and
//     internal/digest would fail if a hook allocated.
//
// Determinism: spans carry virtual timestamps from the simulation
// clocks, so traces of a seeded run are byte-identical across hosts,
// pool sizes and -race. Wall-clock fields are populated only when a
// wall clock is explicitly enabled and are excluded from the JSONL
// export, which is the format pinned by golden fixtures.
package obs

import "strconv"

// Attr is one span attribute. Attribute order is preserved, which keeps
// exports deterministic (unlike a map).
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// A builds a string attribute.
func A(k, v string) Attr { return Attr{K: k, V: v} }

// AI builds an integer attribute.
func AI(k string, v int64) Attr { return Attr{K: k, V: strconv.FormatInt(v, 10)} }
