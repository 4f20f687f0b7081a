package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseExposition checks the exposition parser from both sides. Any
// bytes end in stats or an error, never a panic. And a registry whose
// counter, histogram and func-gauge names, label values and HELP text
// come from the input encodes to an exposition that parses, with one
// family per instrument and one series per sample line the encoder owes.
// Each name is put under its own kind prefix, so no two sanitise to one
// family and a histogram's _sum/_count/_bucket never names another
// instrument: collisions degrade a family to untyped by design, and the
// counts of such a document are not this property's to pin.
func FuzzParseExposition(f *testing.F) {
	f.Add([]byte("# TYPE m counter\nm{a=\"1\"} 1\n"), "mapred.tasks", "lat.us", "slots.free", "map|reduce")
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 3\nh_count 1\n"), "9lives", "a-b c", "ok:colons", "q\"uo\\te|new\nline|")
	f.Add([]byte("m{a=\"\\q\"} 1\nm 1 notats\n"), "", "", "", "")
	f.Fuzz(func(t *testing.T, doc []byte, counter, hist, gauge, values string) {
		_, _ = ParseExposition(bytes.NewReader(doc))

		if len(counter)+len(hist)+len(gauge)+2*len(values) > 1<<16 {
			t.Skip("a line past the parser's 1 MiB limit is an error, not a finding")
		}
		bounds := []int64{10, 100}
		r := NewRegistry()
		r.Help("c."+counter, values)
		distinct := make(map[string]bool)
		for _, v := range strings.Split(values, "|") {
			distinct[v] = true
			view := r.With("k", v)
			r.Counter("c." + counter).Add(int64(len(v)))
			view.Histogram("h."+hist, bounds).Observe(int64(len(v)))
			n := int64(len(v))
			view.Func("g."+gauge, func() int64 { return n })
		}
		var b strings.Builder
		if err := r.WriteExposition(&b); err != nil {
			t.Fatal(err)
		}
		st, err := ParseExposition(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("own exposition does not parse: %v\n%s", err, b.String())
		}
		// One counter, and per label value a gauge and a histogram's
		// buckets (+Inf included), _sum and _count.
		perValue := 1 + len(bounds) + 1 + 2
		if want := 1 + perValue*len(distinct); st.Families != 3 || st.Series != want {
			t.Fatalf("stats = %+v, want 3 families / %d series\n%s", st, want, b.String())
		}
	})
}
