package pig_test

import (
	"testing"

	"clusterbft/internal/mapred"
	"clusterbft/internal/pig"
	"clusterbft/internal/workload"
)

// FuzzParse feeds arbitrary text to pig.Parse, the only parser of
// user-supplied input, and compiles every plan it returns: each input must
// end in an error or in a plan and its jobs, never in a panic. The seeds
// are the four workload scripts and the robustness tests' corpus.
func FuzzParse(f *testing.F) {
	seeds := []string{workload.FollowerScript, workload.TwoHopScript, workload.AirlineScript, workload.WeatherScript}
	for _, src := range append(seeds, pig.ParseCorpus()...) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := pig.Parse(src)
		if err != nil {
			return
		}
		if p == nil {
			t.Fatalf("Parse(%q) returned neither a plan nor an error", src)
		}
		jobs, err := mapred.Compile(p, mapred.CompileOptions{})
		if err == nil && len(jobs) == 0 {
			t.Fatalf("Compile of %q returned neither jobs nor an error", src)
		}
	})
}
