package obs

import (
	"strings"
	"testing"
)

// TestWriteExpositionShape pins the encoder's exact output for a small
// registry: family ordering, HELP/TYPE lines, label suffixes, and the
// cumulative histogram expansion.
func TestWriteExpositionShape(t *testing.T) {
	r := NewRegistry()
	r.Help("mapred.tasks", "tasks by stage")
	r.With("stage", "map").Func("mapred.tasks", func() int64 { return 3 })
	r.With("stage", "reduce").Func("mapred.tasks", func() int64 { return 1 })
	r.Counter("jobs.done").Add(7)
	h := r.Histogram("lat.us", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE jobs_done counter
jobs_done 7
# TYPE lat_us histogram
lat_us_bucket{le="10"} 1
lat_us_bucket{le="100"} 2
lat_us_bucket{le="+Inf"} 3
lat_us_sum 5055
lat_us_count 3
# HELP mapred_tasks tasks by stage
# TYPE mapred_tasks gauge
mapred_tasks{stage="map"} 3
mapred_tasks{stage="reduce"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	st, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
	if st.Families != 3 || st.Series != 8 {
		t.Errorf("stats = %+v, want 3 families / 8 series", st)
	}
}

// TestWriteExpositionLabeledHistogram: the le label merges into an
// existing label suffix, keeping one series per (labels, bound).
func TestWriteExpositionLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	r.With("job", "j1").Histogram("dur", []int64{10}).Observe(3)
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dur_bucket{job="j1",le="10"} 1`,
		`dur_bucket{job="j1",le="+Inf"} 1`,
		`dur_sum{job="j1"} 3`,
		`dur_count{job="j1"} 1`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
	if _, err := ParseExposition(strings.NewReader(b.String())); err != nil {
		t.Errorf("labeled histogram exposition does not parse: %v", err)
	}
}

// TestPromNameSanitisation: dots become underscores, bad runes are
// replaced, leading digits gain a prefix.
func TestPromNameSanitisation(t *testing.T) {
	cases := map[string]string{
		"mapred.cpu_us":  "mapred_cpu_us",
		"a-b c":          "a_b_c",
		"9lives":         "_9lives",
		"ok_name:colons": "ok_name:colons",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestParseExpositionRejects: the validator catches the classes of
// malformed output the CI smoke check is there to detect.
func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"bad metric name":   "foo-bar 1\n",
		"bad label name":    `m{9x="v"} 1` + "\n",
		"unquoted value":    `m{a=v} 1` + "\n",
		"bad escape":        `m{a="\q"} 1` + "\n",
		"unterminated":      `m{a="v 1` + "\n",
		"missing value":     "m\n",
		"bad value":         "m notanumber\n",
		"unknown type":      "# TYPE m widget\nm 1\n",
		"duplicate type":    "# TYPE m counter\nm 1\n# TYPE m counter\n",
		"duplicate series":  `m{a="1"} 1` + "\n" + `m{a="1"} 2` + "\n",
		"broken contiguity": "# TYPE a counter\na 1\n# TYPE b counter\nb 1\na 2\n",
		"bad timestamp":     "m 1 notats\n",
	}
	for name, doc := range cases {
		if _, err := ParseExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: parser accepted %q", name, doc)
		}
	}
	// And the things it must tolerate: comments, timestamps, floats,
	// empty label blocks, untyped bare samples.
	ok := "# just a comment\n# TYPE m counter\nm{} 1 1712345678\nother 3.14\n"
	st, err := ParseExposition(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("parser rejected valid input: %v", err)
	}
	if st.Series != 2 || st.Families != 2 {
		t.Errorf("stats = %+v, want 2 series / 2 families", st)
	}
}
