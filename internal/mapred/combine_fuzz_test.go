package mapred

import (
	"fmt"
	"testing"
)

// fuzzScripts are the workload shapes FuzzCombineEquivalence drives:
// every combinable reduce kind, the non-combinable AVG fallback, a
// two-job chain whose second shuffle consumes combined output, and a
// two-column key holding a string and a column past every row's width.
var fuzzScripts = []struct {
	src     string
	aliases []string
	stores  []string
}{
	{src: followerSrc, aliases: []string{"ne", "counts"}, stores: []string{"out/counts"}},
	{src: `
w = LOAD 'in/edges' AS (user:int, follower:int);
g = GROUP w BY user;
r = FOREACH g GENERATE group AS user, SUM(w.follower), AVG(w.follower), MIN(w.follower), MAX(w.follower), COUNT(w);
STORE r INTO 'out/agg';
`, aliases: []string{"r"}, stores: []string{"out/agg"}},
	{src: `
w = LOAD 'in/edges' AS (user:int, follower:int);
d = DISTINCT w;
STORE d INTO 'out/d';
`, aliases: []string{"d"}, stores: []string{"out/d"}},
	{src: `
w = LOAD 'in/edges' AS (user:int, follower:int);
g = GROUP w ALL;
r = FOREACH g GENERATE COUNT(w), SUM(w.follower), AVG(w.follower);
STORE r INTO 'out/all';
`, aliases: []string{"r"}, stores: []string{"out/all"}},
	{src: `
w = LOAD 'in/edges' AS (user:int, follower);
g = GROUP w BY user;
r = FOREACH g GENERATE group AS user, AVG(w.follower);
STORE r INTO 'out/u';
`, aliases: []string{"r"}, stores: []string{"out/u"}},
	{src: `
w = LOAD 'in/edges' AS (user:int, follower:int);
g = GROUP w BY user;
c = FOREACH g GENERATE group AS user, COUNT(w) AS n;
g2 = GROUP c BY n;
c2 = FOREACH g2 GENERATE group AS n, COUNT(c) AS users;
STORE c2 INTO 'out/chain';
`, aliases: []string{"c", "c2"}, stores: []string{"out/chain"}},
	{src: `
w = LOAD 'in/edges' AS (user:chararray, follower:int, extra);
g = GROUP w BY (extra, user);
r = FOREACH g GENERATE user, extra, COUNT(w), MIN(w.follower);
STORE r INTO 'out/mk';
`, aliases: []string{"r"}, stores: []string{"out/mk"}},
}

// FuzzCombineEquivalence randomizes grouped-aggregate and DISTINCT
// workloads (data distribution, row count, reduce parallelism, digest
// chunking, script shape) and requires the combiner to be invisible:
// identical STORE bytes and identical verification-point digest reports
// with combining on and off. Extends the codec fuzz corpus's role as
// the data plane's byte-level safety net to the shuffle's semantics.
func FuzzCombineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(120), uint8(7), uint8(3), uint8(40))
	f.Add(int64(2), uint8(1), uint16(200), uint8(1), uint8(1), uint8(0))
	f.Add(int64(3), uint8(2), uint16(64), uint8(16), uint8(4), uint8(10))
	f.Add(int64(4), uint8(3), uint16(33), uint8(3), uint8(2), uint8(200))
	f.Add(int64(5), uint8(4), uint16(90), uint8(5), uint8(3), uint8(25))
	f.Add(int64(6), uint8(5), uint16(150), uint8(9), uint8(2), uint8(50))
	f.Add(int64(7), uint8(6), uint16(180), uint8(11), uint8(3), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, script uint8, rows uint16, keys, reduces, chunk uint8) {
		sc := fuzzScripts[int(script)%len(fuzzScripts)]
		n := int(rows)%256 + 1
		k := int(keys)%32 + 1
		nr := int(reduces)%4 + 1
		lines := make([]string, n)
		state := uint64(seed)
		for i := range lines {
			// xorshift64: cheap deterministic stream seeded by the fuzzer.
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			user := int(state % uint64(k))
			follower := int(state>>8%257) - 64 // negatives, zeros, repeats
			lines[i] = fmt.Sprintf("%d\t%d", user, follower)
		}
		inputs := map[string][]string{"in/edges": lines}
		p := plan(t, sc.src)
		points := digestPoints(t, p, sc.aliases...)
		opts := CompileOptions{Points: points, NumReduces: nr}
		mutate := func(e *Engine) { e.DigestChunk = int(chunk) }
		got := [2]string{
			observables(t, run(t, sc.src, inputs, opts, mutate), sc.stores),
			observables(t, runUncombined(t, sc.src, inputs, opts, mutate), sc.stores),
		}
		if got[0] != got[1] {
			t.Errorf("combiner changed observables (script %d, n=%d k=%d r=%d chunk=%d):\n--- on ---\n%s--- off ---\n%s",
				int(script)%len(fuzzScripts), n, k, nr, int(chunk), got[0], got[1])
		}
	})
}
