package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The references below recompute every script's STOREs with maps, loops
// and strconv only. They share no code with internal/: a bug in the
// engine's codec, shuffle or aggregation cannot hide in both.

func atoi(s string) int64 {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		panic(fmt.Sprintf("bench: generated input column %q is not an integer", s))
	}
	return n
}

// countLines renders a count map as "key\tcount" lines.
func countLines(counts map[int64]int64) []string {
	out := make([]string, 0, len(counts))
	for k, n := range counts {
		out = append(out, strconv.FormatInt(k, 10)+"\t"+strconv.FormatInt(n, 10))
	}
	return out
}

func refFollower(lines []string) map[string][]string {
	counts := make(map[int64]int64)
	for _, l := range lines {
		user, follower, _ := strings.Cut(l, "\t")
		if atoi(follower) != 0 {
			counts[atoi(user)]++
		}
	}
	return map[string][]string{
		"out/twitter/followers": countLines(counts),
	}
}

func refTwoHop(lines []string) map[string][]string {
	type edge struct{ user, follower int64 }
	edges := make([]edge, len(lines))
	byUser := make(map[int64][]int64) // user -> followers, the join's right side
	for i, l := range lines {
		u, f, _ := strings.Cut(l, "\t")
		edges[i] = edge{atoi(u), atoi(f)}
		byUser[edges[i].user] = append(byUser[edges[i].user], edges[i].follower)
	}
	var out []string
	for _, a := range edges {
		for _, dst := range byUser[a.follower] {
			if a.user != dst {
				out = append(out, strconv.FormatInt(a.user, 10)+"\t"+strconv.FormatInt(dst, 10))
			}
		}
	}
	return map[string][]string{"out/twitter/twohop": out}
}

func refWeather(lines []string) map[string][]string {
	type acc struct{ sum, n int64 }
	stations := make(map[string]*acc)
	for _, l := range lines {
		cols := strings.Split(l, "\t")
		a := stations[cols[0]]
		if a == nil {
			a = &acc{}
			stations[cols[0]] = a
		}
		a.sum += atoi(cols[2])
		a.n++
	}
	hist := make(map[int64]int64)
	for _, a := range stations {
		hist[a.sum/a.n]++ // integer AVG (§5.4); temperatures are positive
	}
	return map[string][]string{
		"out/weather/histogram": countLines(hist),
	}
}

// top20 keeps the 20 largest counts. Ties at the cut fall either way,
// which is why these outputs are compared on the count alone.
func top20(counts map[string]int64) []string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return counts[keys[i]] > counts[keys[j]] })
	out := make([]string, 0, 20)
	for _, k := range keys[:min(20, len(keys))] {
		out = append(out, k+"\t"+strconv.FormatInt(counts[k], 10))
	}
	return out
}

func refAirline(lines []string) map[string][]string {
	outbound := make(map[string]int64)
	inbound := make(map[string]int64)
	overall := make(map[string]int64)
	for _, l := range lines {
		cols := strings.Split(l, "\t")
		outbound[cols[2]]++
		inbound[cols[3]]++
		overall[cols[2]]++
		overall[cols[3]]++
	}
	return map[string][]string{
		"out/airline/outbound": top20(outbound),
		"out/airline/inbound":  top20(inbound),
		"out/airline/overall":  top20(overall),
	}
}

func refLate(lines []string) map[string][]string {
	var out []string
	for _, l := range lines {
		if atoi(l[strings.LastIndexByte(l, '\t')+1:]) > 0 {
			out = append(out, l)
		}
	}
	return map[string][]string{"out/airline/late": out}
}

// expected is one STORE's reference output as a multiset, built once per
// input so each op's check is a single pass over the output.
type expected struct {
	countOnly bool             // compare the last column only
	index     map[string]int32 // distinct line -> position in want
	want      []int32          // multiplicity of each distinct line
	total     int
}

// key reduces a line to what outputs are compared on.
func (e *expected) key(line string) string {
	if e.countOnly {
		return line[strings.LastIndexByte(line, '\t')+1:]
	}
	return line
}

func newExpected(lines []string, countOnly bool) *expected {
	e := &expected{countOnly: countOnly, index: make(map[string]int32), total: len(lines)}
	for _, l := range lines {
		l = e.key(l)
		i, ok := e.index[l]
		if !ok {
			i = int32(len(e.want))
			e.index[l] = i
			e.want = append(e.want, 0)
		}
		e.want[i]++
	}
	return e
}

// matches reports whether got equals the reference as a multiset.
func (e *expected) matches(got []string) error {
	if len(got) != e.total {
		return fmt.Errorf("%d records, reference has %d", len(got), e.total)
	}
	seen := make([]int32, len(e.want))
	for _, l := range got {
		i, ok := e.index[e.key(l)]
		if !ok {
			return fmt.Errorf("record %q is not in the reference", l)
		}
		seen[i]++
	}
	for i, n := range seen {
		if n != e.want[i] {
			return fmt.Errorf("a record occurs %d times, reference has it %d times", n, e.want[i])
		}
	}
	return nil
}
