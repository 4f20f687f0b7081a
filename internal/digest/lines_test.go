package digest

import (
	"reflect"
	"testing"

	"clusterbft/internal/obs"
)

// recordLines serves records already in their canonical bytes as Lines,
// by AppendLines's contract.
type recordLines [][]byte

func (l recordLines) AppendLines(dst []byte, from, max int) ([]byte, int) {
	r := from
	for ; r < from+max && r < len(l); r++ {
		if len(dst)+len(l[r]) > cap(dst) && len(dst) > 0 {
			break
		}
		dst = append(dst, l[r]...)
	}
	return dst, r - from
}

// FuzzWriterBatchMatchesAdd: records [from, len) folded through AddLines
// from src, in groups of any size, each group from where the last ended,
// mixed with groups folded one record at a time, leave exactly the reports
// — keys, chunk boundaries, counts, sums and order — and the counts that
// AddCanonical called once a record over the same records leaves: from 0
// or from a record within, at chunk sizes 0 to 300, under Also points,
// over empty records and records longer than BufferSize, into buffers of
// any room.
func FuzzWriterBatchMatchesAdd(f *testing.F) {
	f.Add(int64(1), uint16(250), uint16(100), uint8(0), uint16(0))
	f.Add(int64(2), uint16(600), uint16(1), uint8(1), uint16(64))
	f.Add(int64(3), uint16(40), uint16(0), uint8(2), uint16(BufferSize))
	f.Add(int64(4), uint16(300), uint16(7), uint8(1), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, n, chunk uint16, also uint8, room uint16) {
		state := uint64(seed) | 1
		next := func(n int) int {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return int(state % uint64(n))
		}
		recs := make(recordLines, int(n)%800)
		for i := range recs {
			size := next(40)
			switch next(16) {
			case 0:
				size = 0
			case 1:
				size = BufferSize + next(2*BufferSize)
			}
			recs[i] = make([]byte, size)
			for j := range recs[i] {
				recs[i][j] = byte(next(256))
			}
		}
		every := int(chunk) % 301
		reg := obs.NewRegistry()
		writer := func(sink *[]Report, name string) *Writer {
			w := NewWriter(Key{SID: "s", Point: 3, Task: "m0-002"}, 1, every, collect(sink))
			for p := range int(also) % 3 {
				w.Also(10 + p)
			}
			w.Obs = reg.Counter(name)
			return w
		}
		var want, got []Report
		one, batched := writer(&want, "one"), writer(&got, "batched")
		batched.SetBuffer(make([]byte, 0, int(room)%(2*BufferSize)))
		from := 0
		if next(2) == 0 {
			from = next(len(recs) + 1)
		}
		for _, r := range recs[from:] {
			one.AddCanonical(r)
		}
		for at := from; at < len(recs); {
			k := min(next(3*max(every, 1)+2), len(recs)-at)
			if next(4) == 0 {
				for _, r := range recs[at : at+k] {
					batched.AddCanonical(r)
				}
			} else {
				batched.AddLines(recs, at, k)
			}
			at += k
		}
		one.Close()
		batched.Close()
		batched.AddLines(recs, 0, len(recs)) // closed: takes nothing
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("records [%d, %d), d=%d, %d points: batched writer reported\n%v\none a record\n%v", from, len(recs), every, one.Points(), got, want)
		}
		if a, b := reg.Counter("one").Value(), reg.Counter("batched").Value(); a != b || a != int64((len(recs)-from)*one.Points()) {
			t.Errorf("counted %d one a record, %d batched, want %d", a, b, (len(recs)-from)*one.Points())
		}
	})
}
