package digest

import (
	"crypto/sha256"
	"reflect"
	"testing"
	"testing/quick"

	"clusterbft/internal/obs"
	"clusterbft/internal/tuple"
)

func collect(reports *[]Report) func(Report) {
	return func(r Report) { *reports = append(*reports, r) }
}

func rows(n int) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{tuple.Int(int64(i)), tuple.Str("payload")}
	}
	return out
}

func TestSingleFinalDigest(t *testing.T) {
	var got []Report
	w := NewWriter(Key{SID: "j1", Point: 3, Task: "m000"}, 0, 0, collect(&got))
	data := rows(5)
	for _, r := range data {
		w.Add(r)
	}
	w.Close()
	if len(got) != 1 {
		t.Fatalf("reports = %d, want 1", len(got))
	}
	r := got[0]
	if !r.Final || r.Records != 5 || r.Key.Chunk != 0 {
		t.Errorf("report = %+v", r)
	}
	if r.Sum != Of(data) {
		t.Error("writer digest != one-shot digest")
	}
}

func TestChunkedDigests(t *testing.T) {
	var got []Report
	w := NewWriter(Key{SID: "j1", Point: 1, Task: "r000"}, 2, 2, collect(&got))
	for _, r := range rows(5) {
		w.Add(r)
	}
	w.Close()
	// 5 records at d=2: chunks of 2, 2, and final 1.
	if len(got) != 3 {
		t.Fatalf("reports = %d, want 3", len(got))
	}
	wantRecords := []int64{2, 2, 1}
	for i, r := range got {
		if r.Key.Chunk != i {
			t.Errorf("chunk %d index = %d", i, r.Key.Chunk)
		}
		if r.Records != wantRecords[i] {
			t.Errorf("chunk %d records = %d, want %d", i, r.Records, wantRecords[i])
		}
		if r.Final != (i == 2) {
			t.Errorf("chunk %d final = %v", i, r.Final)
		}
		if r.Replica != 2 {
			t.Errorf("chunk %d replica = %d", i, r.Replica)
		}
	}
	// Chunk digests must cover disjoint data: first two chunks of equal
	// content still differ only if content differs; here rows differ.
	if got[0].Sum == got[1].Sum {
		t.Error("distinct chunks with distinct rows should have distinct sums")
	}
}

func TestExactMultipleEmitsEmptyFinal(t *testing.T) {
	var got []Report
	w := NewWriter(Key{}, 0, 2, collect(&got))
	for _, r := range rows(4) {
		w.Add(r)
	}
	w.Close()
	if len(got) != 3 {
		t.Fatalf("reports = %d, want 3 (2 full + empty final)", len(got))
	}
	last := got[2]
	if !last.Final || last.Records != 0 {
		t.Errorf("final = %+v", last)
	}
}

func TestEmptyStreamStillReports(t *testing.T) {
	var got []Report
	w := NewWriter(Key{}, 0, 10, collect(&got))
	w.Close()
	if len(got) != 1 || !got[0].Final || got[0].Records != 0 {
		t.Fatalf("empty stream reports = %+v", got)
	}
}

func TestCloseIdempotent(t *testing.T) {
	var got []Report
	w := NewWriter(Key{}, 0, 0, collect(&got))
	w.Add(rows(1)[0])
	w.Close()
	w.Close()
	w.Add(rows(1)[0]) // ignored after close
	if len(got) != 1 {
		t.Errorf("reports after double close = %d", len(got))
	}
}

func TestReplicasAgreeOnSameData(t *testing.T) {
	data := rows(100)
	run := func(replica int) []Report {
		var got []Report
		w := NewWriter(Key{SID: "j", Point: 2, Task: "m001"}, replica, 30, collect(&got))
		for _, r := range data {
			w.Add(r)
		}
		w.Close()
		return got
	}
	a, b := run(0), run(1)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Errorf("chunk %d keys differ: %v vs %v", i, a[i].Key, b[i].Key)
		}
		if a[i].Sum != b[i].Sum {
			t.Errorf("chunk %d sums differ", i)
		}
	}
}

func TestCorruptionChangesDigest(t *testing.T) {
	data := rows(10)
	honest := Of(data)
	corrupt := make([]tuple.Tuple, len(data))
	copy(corrupt, data)
	corrupt[7] = tuple.Tuple{tuple.Int(7), tuple.Str("tampered")}
	if Of(corrupt) == honest {
		t.Error("corrupted stream must change digest")
	}
}

func TestOrderSensitivity(t *testing.T) {
	data := rows(3)
	swapped := []tuple.Tuple{data[1], data[0], data[2]}
	if Of(data) == Of(swapped) {
		t.Error("digest must be order sensitive (determinism contract)")
	}
}

func TestKeyString(t *testing.T) {
	k := Key{SID: "j7", Point: 4, Task: "r002", Chunk: 9}
	if got := k.String(); got != "j7/p4/r002#9" {
		t.Errorf("Key.String = %q", got)
	}
}

func TestSumString(t *testing.T) {
	s := Of(rows(1))
	if len(s.String()) != 16 {
		t.Errorf("Sum.String length = %d, want 16 hex chars", len(s.String()))
	}
}

func TestWriterRecordsCounter(t *testing.T) {
	w := NewWriter(Key{}, 0, 10, func(Report) {})
	for _, r := range rows(4) {
		w.Add(r)
	}
	if w.inChunk != 4 {
		t.Errorf("Records = %d", w.inChunk)
	}
}

func TestChunkingInvariantProperty(t *testing.T) {
	// Property: for any record count n and chunk size d, total records
	// across reports equals n, exactly one final report is emitted, and
	// chunk indices are consecutive from 0.
	f := func(n uint8, d uint8) bool {
		var got []Report
		w := NewWriter(Key{}, 0, int(d%50), collect(&got))
		for _, r := range rows(int(n % 200)) {
			w.Add(r)
		}
		w.Close()
		var total int64
		finals := 0
		for i, r := range got {
			total += r.Records
			if r.Final {
				finals++
			}
			if r.Key.Chunk != i {
				return false
			}
		}
		return total == int64(n%200) && finals == 1 && got[len(got)-1].Final
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWriterAddCanonicalMatchesAdd: a stream folded through AddCanonical
// from caller-encoded bytes reports exactly what the same stream folded
// through Add does — sums, chunk boundaries and record counts — at every
// chunking, including when the two are mixed on one writer; and a closed
// writer ignores both.
func TestWriterAddCanonicalMatchesAdd(t *testing.T) {
	data := rows(250)
	data[7] = tuple.Tuple{tuple.Str("tab\tnewline\nbackslash\\"), tuple.Null(), tuple.Float(2.5)}
	data[8] = tuple.Tuple{}
	for _, every := range []int{0, 1, 100, 250, 1000} {
		var viaAdd, viaCanon, mixed []Report
		key := Key{SID: "s", Point: 4, Task: "r001"}
		a := NewWriter(key, 1, every, collect(&viaAdd))
		c := NewWriter(key, 1, every, collect(&viaCanon))
		m := NewWriter(key, 1, every, collect(&mixed))
		var buf []byte
		for i, r := range data {
			a.Add(r)
			buf = tuple.AppendCanonical(buf[:0], r)
			c.AddCanonical(buf)
			if i%2 == 0 {
				m.Add(r)
			} else {
				m.AddCanonical(buf)
			}
			if a.inChunk != c.inChunk || a.inChunk != m.inChunk {
				t.Fatalf("every=%d record %d: open-chunk Records %d (Add), %d (AddCanonical), %d (mixed)",
					every, i, a.inChunk, c.inChunk, m.inChunk)
			}
		}
		a.Close()
		c.Close()
		m.Close()
		if len(viaAdd) == 0 || !reflect.DeepEqual(viaAdd, viaCanon) || !reflect.DeepEqual(viaAdd, mixed) {
			t.Errorf("every=%d: reports differ: %d via Add, %d via AddCanonical, %d mixed", every, len(viaAdd), len(viaCanon), len(mixed))
		}
		c.AddCanonical(buf)
		c.Close()
		if c.inChunk != 0 || len(viaCanon) != len(viaAdd) {
			t.Errorf("every=%d: closed writer took a record or reported again", every)
		}
	}
}

// TestAlsoMatchesTwoWriters: one writer reporting under a second point
// emits, report for report, what two writers fed the same records in turn
// do — same keys, counts, sums and order — at every chunk size and for an
// empty stream, and counts each record once per point.
func TestAlsoMatchesTwoWriters(t *testing.T) {
	for _, every := range []int{0, 1, 100} {
		for _, n := range []int{0, 1, 99, 100, 250} {
			reg := obs.NewRegistry()
			var want, got []Report
			w0 := NewWriter(Key{SID: "j", Point: 4, Task: "m0-001"}, 2, every, collect(&want))
			w1 := NewWriter(Key{SID: "j", Point: 9, Task: "m0-001"}, 2, every, collect(&want))
			w0.Obs, w1.Obs = reg.Counter("two"), reg.Counter("two")
			fused := NewWriter(Key{SID: "j", Point: 4, Task: "m0-001"}, 2, every, collect(&got))
			fused.Also(9)
			fused.Obs = reg.Counter("fused")
			if fused.Points() != 2 {
				t.Fatalf("Points = %d", fused.Points())
			}
			for _, r := range rows(n) {
				w0.Add(r)
				w1.Add(r)
				fused.Add(r)
			}
			w0.Close()
			w1.Close()
			fused.Close()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("d=%d, %d records: fused writer emitted\n%v\ntwo writers\n%v", every, n, got, want)
			}
			if two, one := reg.Counter("two").Value(), reg.Counter("fused").Value(); one != two || one != int64(2*n) {
				t.Errorf("d=%d, %d records: counted %d fused, %d apart, want %d", every, n, one, two, 2*n)
			}
		}
	}
}

// TestHasherMatchesOneShot: a Hasher's sum is SHA-256 of the bytes written
// to it, in order, whatever its buffer and however the writes are cut —
// bytes, strings and single bytes, shorter and longer than the buffer,
// across a sum taken midway.
func TestHasherMatchesOneShot(t *testing.T) {
	for _, room := range []int{0, 1, 7, 64, BufferSize} {
		hs := NewHasher(make([]byte, 0, room))
		var all []byte
		state := uint64(room) | 1
		for i := 0; i < 300; i++ {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			p := make([]byte, int(state%uint64(3*BufferSize))>>uint(state%11))
			for j := range p {
				p[j] = byte(i + j)
			}
			switch i % 3 {
			case 0:
				hs.Write(p)
			case 1:
				hs.WriteString(string(p))
			default:
				hs.WriteByte(byte(i))
				p = []byte{byte(i)}
			}
			all = append(all, p...)
			if i == 150 {
				if got, want := hs.Sum(), Sum(sha256.Sum256(all)); got != want {
					t.Fatalf("buffer of %d: midway sum %v, one-shot %v", room, got, want)
				}
			}
		}
		if got, want := hs.Sum(), Sum(sha256.Sum256(all)); got != want {
			t.Errorf("buffer of %d: sum %v over %d bytes, one-shot %v", room, got, len(all), want)
		}
	}
}
