package mapred

import (
	"clusterbft/internal/tuple"
)

// oracleFold is combiner.fold as it was before keys were hashed on their
// source spans: the key is projected from the tuple into a tuple of its
// own, encoded through tuple.AppendEncoded into a buffer of its own and
// walked twice, once per hash, and only a new key is added to the text.
// It is what FuzzFoldOnSpanMatchesTuples holds fold to.
func oracleFold(c *combiner, t tuple.Tuple, text []byte, vals *valArrays) []byte {
	key := make(tuple.Tuple, len(c.keyCols))
	for i, col := range c.keyCols {
		if col < len(t) {
			key[i] = t[col]
		}
	}
	enc := tuple.AppendEncoded(nil, key)
	h := uint64(fnvOffset64)
	for _, b := range enc {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	part := &c.parts[partitionOfBytes(enc, len(c.parts))]
	if len(part.slots) > 0 {
		if e := part.find(h, text, enc); e >= 0 {
			return oracleMerge(c, part, e, t, text)
		}
	}
	at := len(text)
	text = append(text, enc...)
	return oracleMerge(c, part, part.insert(h, text, at, t, c, vals), t, text)
}

func oracleMerge(c *combiner, part *combinePart, e int, t tuple.Tuple, text []byte) []byte {
	accs := part.accs[e*len(c.aggs):]
	for i, agg := range c.aggs {
		mergeAgg(agg, &accs[i], 1, colOf(t, agg.ColIdx))
	}
	return text
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
