package tuple

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkAppendCanonical times the record encoder on rows shaped like
// the tuples verification digests and output lines encode: a two-hop
// join's pairs of small ints before and after its join, an airline row's
// carrier and delay, a negative int and a float. It reports ns/record
// over a batch of rows, as the data plane encodes them one after another
// into one reused buffer.
func BenchmarkAppendCanonical(b *testing.B) {
	const rows = 1024
	rng := rand.New(rand.NewSource(1))
	small := func() Value { return Int(rng.Int63n(5000)) }
	shapes := []struct {
		name string
		row  func() Tuple
	}{
		{"2-small-ints", func() Tuple { return Tuple{small(), small()} }},
		{"4-small-ints", func() Tuple { return Tuple{small(), small(), small(), small()} }},
		{"string-int", func() Tuple {
			return Tuple{Str(fmt.Sprintf("C%02d", rng.Intn(20))), Int(rng.Int63n(600) - 60)}
		}},
		{"negative-int", func() Tuple { return Tuple{Int(-rng.Int63n(1 << 40))} }},
		{"float", func() Tuple { return Tuple{Float(rng.Float64() * 1000)} }},
	}
	for _, s := range shapes {
		in := make([]Tuple, rows)
		for i := range in {
			in[i] = s.row()
		}
		b.Run(s.name, func(b *testing.B) {
			buf := make([]byte, 0, 4096)
			for b.Loop() {
				buf = buf[:0]
				for _, t := range in {
					buf = AppendCanonical(buf, t)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/record")
		})
	}
}
