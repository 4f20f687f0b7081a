package mapred

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clusterbft/internal/dfs"
)

// TestGoldenFollowerDigestStream runs one seeded Fig 9-style follower
// job (filter → group → count, two verification points, chunked digests,
// three reduce partitions) and compares every externally observable byte
// against a committed fixture: the full digest-report stream in emission
// order (full SHA-256 sums), the raw output part files, and the engine's
// resource counters.
//
// The pool-invariance and repeat-run determinism suites only prove runs
// agree with each other; this fixture proves they agree with the
// committed history, so any change to the codec, hash functions, shuffle
// placement, grouping order or byte accounting — however internally
// consistent — fails loudly here. Regenerate deliberately with
// CLUSTERBFT_UPDATE_GOLDEN=1 after auditing that the change is meant to
// alter observable bytes.
func TestGoldenFollowerDigestStream(t *testing.T) {
	got := goldenFollowerObservables(t, dfs.NewWith(dfs.Options{}))

	golden := filepath.Join("testdata", "golden_follower.txt")
	if os.Getenv("CLUSTERBFT_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	compareGolden(t, golden, got)
}

// TestGoldenFollowerDigestStreamSpillOn replays the same seeded job on a
// block data plane configured far out of its comfort zone — 2 KiB
// blocks, a 1 KiB resident budget forcing nearly every sealed block to
// disk, compression on — and requires the exact committed fixture bytes.
// Digests are over canonical record bytes and the storage layer
// reconstructs records exactly, so no observable may move; this test
// never regenerates the fixture.
func TestGoldenFollowerDigestStreamSpillOn(t *testing.T) {
	fs := dfs.NewWith(dfs.Options{
		BlockSize: 2 << 10,
		MemBudget: 1 << 10,
		SpillDir:  t.TempDir(),
		Compress:  true,
	})
	defer fs.Close()
	got := goldenFollowerObservables(t, fs)
	if fs.SpilledBlocks() == 0 {
		t.Fatal("spill-on golden run never spilled; budget not exercised")
	}
	compareGolden(t, filepath.Join("testdata", "golden_follower.txt"), got)
}

// goldenFollowerObservables runs the seeded Fig 9-style follower job on
// fs and renders every externally observable byte into the fixture
// format.
func goldenFollowerObservables(t *testing.T, fs *dfs.FS) string {
	t.Helper()
	lines := make([]string, 3000)
	for i := range lines {
		// Seeded Fig 9 shape: skewed users, some zero followers for the
		// filter to drop. Pure arithmetic, no RNG library to drift.
		lines[i] = fmt.Sprintf("%d\t%d", i%97, (i*31+7)%500)
	}
	p := plan(t, followerSrc)
	opts := CompileOptions{Points: digestPoints(t, p, "ne", "counts"), NumReduces: 3}
	tr := runOn(t, fs, followerSrc, map[string][]string{"in/edges": lines}, opts,
		func(e *Engine) { e.DigestChunk = 200 })

	var b strings.Builder
	b.WriteString("# golden fixture: seeded follower job observables\n")
	b.WriteString("## digest reports (emission order)\n")
	for _, r := range tr.reports {
		fmt.Fprintf(&b, "%s replica=%d final=%v records=%d sum=%s\n",
			r.Key.String(), r.Replica, r.Final, r.Records, hex.EncodeToString(r.Sum[:]))
	}
	b.WriteString("## output bytes (part-file order)\n")
	outLines, err := tr.fs.ReadTree("out/counts")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range outLines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	b.WriteString("## engine metrics\n")
	fmt.Fprintf(&b, "%+v\n", tr.eng.Metrics)
	return b.String()
}

// compareGolden diffs got against the committed fixture, reporting the
// first divergent line.
func compareGolden(t *testing.T, golden, got string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read fixture (CLUSTERBFT_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Errorf("line %d:\n  got  %q\n  want %q", i+1, g, w)
				break
			}
		}
		t.Fatalf("observable bytes diverged from committed fixture (%d vs %d bytes)",
			len(got), len(want))
	}
}
