package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it, 0 for none; spans of one op share Op.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps the spans of a traced pass in memory until the pass
// ends. A nil recorder records nothing, which is how untraced ops run
// the same code. It is used from the benchmark's goroutine and from the
// engine's simulation goroutine, which are the same one: Controller.Run
// calls both wrapped callbacks synchronously.
type recorder struct {
	epoch time.Time
	spans []span
	op    int
	prof  *profiler // set while traced ops run under the CPU profiler
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) profiler() *profiler {
	if r == nil {
		return nil
	}
	return r.prof
}

// nextOp starts a new op; spans recorded from now on carry its number.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Name: name, Parent: parent, Op: r.op,
		Start: int64(time.Since(r.epoch)),
	})
	return len(r.spans)
}

// end closes a span and returns its duration in milliseconds.
func (r *recorder) end(id int) float64 {
	if r == nil || id == 0 {
		return 0
	}
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.epoch))
	return float64(s.End-s.Start) / 1e6
}

// point records a span that just ended and took d.
func (r *recorder) point(name string, d time.Duration) {
	if r == nil {
		return
	}
	end := int64(time.Since(r.epoch))
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Name: name, Op: r.op, Start: end - int64(d), End: end,
	})
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
