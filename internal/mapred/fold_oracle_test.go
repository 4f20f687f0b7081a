package mapred

import (
	"clusterbft/internal/tuple"
)

// oracleFold is combiner.fold as it was before keys were hashed on their
// source spans: the key is projected from the tuple into a tuple of its
// own, encoded through tuple.AppendEncoded and walked twice, once per
// hash. It is what FuzzFoldOnSpanMatchesTuples holds fold to.
func oracleFold(c *combiner, t tuple.Tuple, scratch []byte) []byte {
	key := make(tuple.Tuple, len(c.keyCols))
	for i, col := range c.keyCols {
		if col < len(t) {
			key[i] = t[col]
		}
	}
	scratch = tuple.AppendEncoded(scratch[:0], key)
	h := uint64(fnvOffset64)
	for _, b := range scratch {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	part := &c.parts[partitionOfBytes(scratch, len(c.parts))]
	e := part.find(h, scratch)
	if e < 0 {
		e = part.insert(h, scratch, t, c)
	}
	accs := part.accs[e*len(c.aggs):]
	for i, agg := range c.aggs {
		mergeAgg(agg, &accs[i], 1, colOf(t, agg.ColIdx))
	}
	return scratch
}

// partitionOfBytes is partitionOf over the key's encoded bytes, the
// oracle's second walk.
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
