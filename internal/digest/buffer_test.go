package digest

import (
	"reflect"
	"testing"

	"clusterbft/internal/tuple"
)

// Writer edge cases around the Buffer integration: negative chunking,
// Add after Close, double Close.

func TestNegativeEveryActsAsSingleDigest(t *testing.T) {
	for _, every := range []int{0, -1, -1000} {
		var got []Report
		w := NewWriter(Key{SID: "s", Point: 1, Task: "m000"}, 0, every, collect(&got))
		data := rows(7)
		for _, r := range data {
			w.Add(r)
		}
		w.Close()
		if len(got) != 1 {
			t.Fatalf("every=%d: reports = %d, want 1", every, len(got))
		}
		if !got[0].Final || got[0].Records != 7 || got[0].Sum != Of(data) {
			t.Errorf("every=%d: report = %+v", every, got[0])
		}
	}
}

func TestAddAfterCloseIgnored(t *testing.T) {
	var got []Report
	w := NewWriter(Key{SID: "s", Point: 1, Task: "m000"}, 0, 0, collect(&got))
	data := rows(3)
	for _, r := range data {
		w.Add(r)
	}
	w.Close()
	w.Add(tuple.Tuple{tuple.Str("late")})
	w.Close()
	if len(got) != 1 {
		t.Fatalf("reports = %d, want 1 (Add after Close must not reopen)", len(got))
	}
	if got[0].Sum != Of(data) {
		t.Error("late Add leaked into the closed digest")
	}
	if w.inChunk != 0 {
		t.Errorf("records after close = %d, want 0", w.inChunk)
	}
}

func TestDoubleCloseEmitsOnce(t *testing.T) {
	var got []Report
	w := NewWriter(Key{SID: "s", Point: 2, Task: "r001"}, 1, 2, collect(&got))
	for _, r := range rows(3) {
		w.Add(r)
	}
	w.Close()
	w.Close()
	w.Close()
	finals := 0
	for _, r := range got {
		if r.Final {
			finals++
		}
	}
	if finals != 1 {
		t.Errorf("final reports = %d, want exactly 1", finals)
	}
}

// Buffer behaviour.

func TestBufferZeroValueEmpty(t *testing.T) {
	var b Buffer
	if len(b.reports) != 0 {
		t.Error("zero-value buffer must be empty")
	}
	called := false
	b.Replay(func(Report) { called = true })
	if called {
		t.Error("replay of an empty buffer must not call the sink")
	}
	b.Replay(nil) // must not panic
}

func TestBufferReplayNilSink(t *testing.T) {
	var b Buffer
	b.Add(Report{Replica: 1})
	b.Replay(nil) // digests disabled: must be a silent no-op
	if len(b.reports) != 1 {
		t.Error("replay must not consume the buffer")
	}
}

func TestBufferReplayPreservesEmissionOrder(t *testing.T) {
	// A writer emitting through a buffer, replayed, must produce the
	// exact report sequence the writer emitting straight into a sink
	// produces — that equivalence is what makes commit-time replay
	// transparent to the verifier.
	emitRows := func(emit func(Report)) {
		w := NewWriter(Key{SID: "s", Point: 1, Task: "m000"}, 2, 3, emit)
		for _, r := range rows(10) {
			w.Add(r)
		}
		w.Close()
		w2 := NewWriter(Key{SID: "s", Point: 4, Task: "m000"}, 2, 0, emit)
		for _, r := range rows(4) {
			w2.Add(r)
		}
		w2.Close()
	}
	var direct []Report
	emitRows(collect(&direct))

	var b Buffer
	emitRows(b.Add)
	var replayed []Report
	b.Replay(collect(&replayed))

	if !reflect.DeepEqual(direct, replayed) {
		t.Fatalf("replayed sequence differs from direct emission:\n%v\nvs\n%v", replayed, direct)
	}
	if len(b.reports) != len(direct) || !reflect.DeepEqual(b.reports, direct) {
		t.Error("Reports() must expose the buffered sequence unchanged")
	}
	// Replay is repeatable — a retried commit sees the same sequence.
	var again []Report
	b.Replay(collect(&again))
	if !reflect.DeepEqual(again, replayed) {
		t.Error("second replay differs from first")
	}
}

func TestBufferChunkIndicesMonotonicPerPoint(t *testing.T) {
	var b Buffer
	w := NewWriter(Key{SID: "s", Point: 9, Task: "m001"}, 0, 2, b.Add)
	for _, r := range rows(7) {
		w.Add(r)
	}
	w.Close()
	for i, r := range b.reports {
		if r.Key.Chunk != i {
			t.Fatalf("report %d has chunk %d", i, r.Key.Chunk)
		}
		if i == len(b.reports)-1 && !r.Final {
			t.Error("last buffered report must be the final chunk")
		}
	}
}
