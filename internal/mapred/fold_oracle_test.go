package mapred

import (
	"clusterbft/internal/tuple"
)

// oracleCombiner is the combining map side as it reads without the
// combiner's table, its words or its hashes: each record's key is projected
// from the tuple into a tuple of its own and encoded through
// tuple.AppendEncoded into a buffer of its own, looked up in a Go map, and
// merged into its key's state; emit places each key in the partition
// partitionOfBytes gives its bytes, in first-arrival order. It is what
// FuzzFoldOnSpanMatchesTuples holds the combiner's emitted runs to. It
// takes c's spec and key projection and uses nothing else of c.
type oracleCombiner struct {
	c      *combiner
	index  map[string]int
	keys   []string
	tuples []tuple.Tuple // DISTINCT's first tuple of each key; an aggregate's key values
	accs   [][]aggAcc
}

func newOracleCombiner(c *combiner) *oracleCombiner {
	return &oracleCombiner{c: c, index: map[string]int{}}
}

// fold merges t into its key's state.
func (o *oracleCombiner) fold(t tuple.Tuple) {
	c := o.c
	key := make(tuple.Tuple, len(c.keyCols))
	for i, col := range c.keyCols {
		if col < len(t) {
			key[i] = t[col]
		}
	}
	enc := string(tuple.AppendEncoded(nil, key))
	e, ok := o.index[enc]
	if !ok {
		e = len(o.keys)
		o.index[enc] = e
		o.keys = append(o.keys, enc)
		if c.spec.Kind == ReduceDistinct {
			o.tuples = append(o.tuples, append(tuple.Tuple(nil), t...))
		} else {
			o.tuples = append(o.tuples, key)
		}
		o.accs = append(o.accs, make([]aggAcc, len(c.aggs)))
	}
	for i, agg := range c.aggs {
		mergeAgg(agg, &o.accs[e][i], 1, colOf(t, agg.ColIdx))
	}
}

// emit returns the runs the combiner is to emit, before sortRuns, each
// record in storage of its own, and their serialized-byte total.
func (o *oracleCombiner) emit(numParts int) ([]sortedRun, int64) {
	runs := make([]sortedRun, numParts)
	var text []byte
	var arrays [][]tuple.Value
	var total int64
	for e, key := range o.keys {
		t := o.tuples[e]
		payload := tuple.Tuple{}
		if o.c.spec.Kind == ReduceDistinct {
			payload = t
		} else {
			for _, a := range o.accs[e] {
				payload = append(payload, tuple.Int(a.n), a.v)
			}
			t = append(append(tuple.Tuple(nil), t...), payload...)
		}
		r := interRec{key: int32(len(text)), keyLen: int32(len(key)), array: int32(len(arrays)),
			tag: o.c.tag, width: int32(len(t)), encLen: int32(len(tuple.AppendEncoded(nil, payload)))}
		text, arrays = append(text, key...), append(arrays, t)
		total += r.bytes()
		p := partitionOfBytes([]byte(key), numParts)
		runs[p].recs = append(runs[p].recs, r)
	}
	for p := range runs {
		runs[p].text, runs[p].vals = string(text), arrays
	}
	return runs, total
}

// partitionOfBytes is partitionOf over the key's encoded bytes, written
// out apart from it.
func partitionOfBytes(key []byte, numReduces int) int {
	if numReduces <= 1 {
		return 0
	}
	h := uint32(fnvOffset32)
	for _, b := range key {
		h ^= uint32(b)
		h *= fnvPrime32
	}
	return int(h % uint32(numReduces))
}
