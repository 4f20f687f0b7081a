package dfs

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
)

// referenceEncodeBlock is the block encoder as it was before blocks were
// sized exactly and built in place: the field spans of every line in
// row-major arrays, the payload built apart and copied behind the header.
// It is kept as the oracle the encoder's bytes are held to
// (FuzzBlockRoundTrip), in the spirit of the line oracle the column path
// is held to.
func referenceEncodeBlock(lines []string, compress bool) (data []byte, rawLen int) {
	logical, spans := 0, len(lines)
	for _, l := range lines {
		logical += len(l) + 1
		spans += strings.Count(l, "\t")
	}
	ints := make([]int, len(lines)+1+2*spans)
	pre := ints[:len(lines)+1]
	starts := ints[len(pre) : len(pre) : len(pre)+spans]
	ends := ints[len(pre)+spans : len(pre)+spans]
	maxCols, minCols := 0, 0
	for i, l := range lines {
		n := 0
		start := 0
		for {
			idx := strings.IndexByte(l[start:], '\t')
			if idx < 0 {
				starts = append(starts, start)
				ends = append(ends, len(l))
				n++
				break
			}
			starts = append(starts, start)
			ends = append(ends, start+idx)
			start += idx + 1
			n++
		}
		pre[i+1] = pre[i] + n
		maxCols = max(maxCols, n)
		if i == 0 || n < minCols {
			minCols = n
		}
	}

	payload := make([]byte, 0, logical+len(lines)*2+5*maxCols+24)
	payload = binary.AppendUvarint(payload, uint64(maxCols))
	payload = binary.AppendUvarint(payload, uint64(minCols))
	if minCols != maxCols {
		for i := range lines {
			payload = binary.AppendUvarint(payload, uint64(pre[i+1]-pre[i]))
		}
	}
	var dir []byte
	for c := 0; c < maxCols; c++ {
		at := len(payload)
		for i, l := range lines {
			if pre[i+1]-pre[i] <= c {
				continue
			}
			s, e := starts[pre[i]+c], ends[pre[i]+c]
			payload = binary.AppendUvarint(payload, uint64(e-s))
			payload = append(payload, l[s:e]...)
		}
		region := payload[at:]
		d := uint64(len(region)) << 1
		if holdsEscapeByte(region) {
			d |= 1
		}
		dir = binary.AppendUvarint(dir, d)
	}
	foot := len(payload)
	payload = append(payload, dir...)
	for _, l := range lines {
		payload = binary.AppendUvarint(payload, uint64(len(l)))
	}
	payload = binary.LittleEndian.AppendUint64(payload, uint64(foot))
	rawLen = len(payload)

	flags := byte(0)
	if compress {
		z := deflaters.Get().(*deflater)
		defer deflaters.Put(z)
		z.out.Reset()
		z.zw.Reset(&z.out)
		if _, err := z.zw.Write(payload); err == nil && z.zw.Close() == nil && z.out.Len() < rawLen {
			payload = z.out.Bytes()
			flags |= blockFlagFlate
		}
	}

	h := binary.AppendUvarint([]byte{blockVersion, flags}, uint64(len(lines)))
	data = append(h, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(data[len(h):], crc32.Update(crc32.Checksum(h, castagnoli), castagnoli, payload))
	return append(data, payload...), rawLen
}
