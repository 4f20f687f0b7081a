package mapred

import (
	"fmt"
	"reflect"
	"testing"

	"clusterbft/internal/tuple"
)

func TestRunSampleKeepsFraction(t *testing.T) {
	var lines []string
	for i := 0; i < 10000; i++ {
		lines = append(lines, fmt.Sprintf("%d\tpayload-%d", i, i))
	}
	tr := run(t, `
a = LOAD 'x' AS (k:int, v);
s = SAMPLE a 0.3;
STORE s INTO 'o';
`, map[string][]string{"x": lines}, CompileOptions{}, nil)
	got := tr.output(t, "o")
	frac := float64(len(got)) / float64(len(lines))
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("sampled fraction = %.3f, want ~0.30", frac)
	}
}

func TestRunSampleDeterministicAcrossRuns(t *testing.T) {
	var lines []string
	for i := 0; i < 2000; i++ {
		lines = append(lines, fmt.Sprintf("%d\tv", i))
	}
	in := map[string][]string{"x": lines}
	src := `
a = LOAD 'x' AS (k:int, v);
s = SAMPLE a 0.5;
STORE s INTO 'o';
`
	a := run(t, src, in, CompileOptions{}, nil).output(t, "o")
	b := run(t, src, in, CompileOptions{}, nil).output(t, "o")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sampling must be deterministic (digest comparability)")
	}
}

func TestSampleIntoGroup(t *testing.T) {
	// SAMPLE composes with downstream shuffles.
	// Rows must be distinct: sampling hashes tuple values, so identical
	// rows are kept or dropped together (which keeps replicas
	// deterministic but would skew this test's counts).
	var lines []string
	for i := 0; i < 3000; i++ {
		lines = append(lines, fmt.Sprintf("k%d\t%d", i%5, i))
	}
	tr := run(t, `
a = LOAD 'x' AS (k, v:int);
s = SAMPLE a 0.5;
g = GROUP s BY k;
c = FOREACH g GENERATE group AS k, COUNT(s) AS n;
STORE c INTO 'o';
`, map[string][]string{"x": lines}, CompileOptions{NumReduces: 2}, nil)
	got := tr.output(t, "o")
	if len(got) != 5 {
		t.Fatalf("groups = %d, want 5: %v", len(got), got)
	}
	var total int64
	for _, l := range got {
		total += new(tuple.Decoder).DecodeLine(l, nil)[1].Int()
	}
	frac := float64(total) / 3000
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("sampled-then-counted fraction = %.3f", frac)
	}
}

func TestSampleKeepHelper(t *testing.T) {
	keep := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if sampleKeepHash(tuple.AppendCanonical(nil, tuple.Tuple{tuple.Int(int64(i))}), 0.1) {
			keep++
		}
	}
	frac := float64(keep) / n
	if frac < 0.08 || frac > 0.12 {
		t.Errorf("keep fraction = %.3f, want ~0.10", frac)
	}
	// Fraction 1 keeps everything.
	for i := 0; i < 100; i++ {
		if !sampleKeepHash(tuple.AppendCanonical(nil, tuple.Tuple{tuple.Int(int64(i))}), 1.0) {
			t.Fatal("fraction 1.0 must keep all")
		}
	}
	// Same tuple, same verdict.
	tup := tuple.Tuple{tuple.Str("stable")}
	first := sampleKeepHash(tuple.AppendCanonical(nil, tup), 0.5)
	for i := 0; i < 10; i++ {
		if sampleKeepHash(tuple.AppendCanonical(nil, tup), 0.5) != first {
			t.Fatal("sampleKeepHash not deterministic")
		}
	}
}

func TestSampleKeepFractionClamped(t *testing.T) {
	// A negative fraction must keep nothing: before clamping, the
	// float→uint64 conversion of a negative product is platform-defined
	// in Go, so a hostile or buggy script could sample differently per
	// replica and break digest comparability.
	tuples := make([]tuple.Tuple, 0, 1000)
	for i := 0; i < 1000; i++ {
		tuples = append(tuples, tuple.Tuple{tuple.Int(int64(i)), tuple.Str("v")})
	}
	cases := []struct {
		fraction float64
		lo, hi   float64 // acceptable kept-fraction bounds
	}{
		{-0.1, 0, 0},
		{0, 0, 0},
		{0.5, 0.45, 0.55},
		{1, 1, 1},
		{1.5, 1, 1},
	}
	for _, tc := range cases {
		kept := 0
		for _, tp := range tuples {
			if sampleKeepHash(tuple.AppendCanonical(nil, tp), tc.fraction) {
				kept++
			}
		}
		frac := float64(kept) / float64(len(tuples))
		if frac < tc.lo || frac > tc.hi {
			t.Errorf("fraction %v kept %.3f of tuples, want within [%v, %v]",
				tc.fraction, frac, tc.lo, tc.hi)
		}
	}
}

func TestCompileSampleIsMapSide(t *testing.T) {
	jobs := compile(t, `
a = LOAD 'x' AS (k, v:int);
s = SAMPLE a 0.5;
g = GROUP s BY k;
c = FOREACH g GENERATE group, COUNT(s);
STORE c INTO 'o';
`, CompileOptions{})
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d, want 1 (sample fuses into the map side)", len(jobs))
	}
	found := false
	for _, op := range jobs[0].Inputs[0].Ops {
		if op.Kind == PhysSample && op.Fraction == 0.5 {
			found = true
		}
	}
	if !found {
		t.Errorf("PhysSample missing from map ops: %+v", jobs[0].Inputs[0].Ops)
	}
}
