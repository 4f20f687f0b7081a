package dfs

import (
	"encoding/binary"
	"hash/crc32"
	"strings"

	"clusterbft/internal/tuple"
)

// referenceEncodeBlock is the block encoder as it was before blocks were
// sized exactly and built in place: the field spans of every line in
// row-major arrays, the payload built apart and copied behind the header,
// and a dictionary-coded payload built apart again, with a map a column.
// It is kept as the oracle the encoder's bytes are held to
// (FuzzBlockRoundTrip), in the spirit of the line oracle the column path
// is held to. Version 3's parts are built here their own way: a column's
// facts from two booleans over every value of a non-empty line, and the
// row index from the offsets noted as each region grows and from the line
// lengths of the records before each entry's.
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
	head := len(payload)
	var dir []byte
	// marks[r] is, for every 1024th record r, where its values begin.
	marks := map[int][]int{}
	for c := 0; c < maxCols; c++ {
		at := len(payload)
		for i, l := range lines {
			if pre[i+1]-pre[i] <= c {
				continue
			}
			if i > 0 && i%1024 == 0 {
				marks[i] = append(marks[i], len(payload))
			}
			s, e := starts[pre[i]+c], ends[pre[i]+c]
			payload = binary.AppendUvarint(payload, uint64(e-s))
			payload = append(payload, l[s:e]...)
		}
		region := payload[at:]
		dir = binary.AppendUvarint(dir, referenceDirEntry(len(region), referenceFacts(lines, pre, starts, ends, c), holdsEscapeByte(region)))
	}
	foot := len(payload)
	payload = append(payload, dir...)
	lens := len(payload)
	payload = append(payload, lineLengths(lines)...)
	if minCols == maxCols {
		for r := 1024; r < len(lines); r += 1024 {
			payload = binary.LittleEndian.AppendUint64(payload, uint64(lens+len(lineLengths(lines[:r]))))
			for _, v := range marks[r] {
				payload = binary.LittleEndian.AppendUint64(payload, uint64(v))
			}
		}
	}
	payload = binary.LittleEndian.AppendUint64(payload, uint64(foot))
	rawLen = len(payload)

	flags := byte(0)
	coded, ok := referenceDictPayload(lines, pre, starts, ends, payload[:head], maxCols)
	if compress && ok && len(coded) < rawLen {
		payload, flags = coded, blockFlagDict
	} else if compress {
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

// referenceDictPayload is the payload of the lines with every column
// dictionary-coded, behind head, or false where a column holds more than
// 256 distinct values.
func referenceDictPayload(lines []string, pre, starts, ends []int, head []byte, maxCols int) ([]byte, bool) {
	payload := append([]byte(nil), head...)
	var dir []byte
	for c := 0; c < maxCols; c++ {
		index := map[string]int{}
		var dict []string
		var codes []byte
		for i, l := range lines {
			if pre[i+1]-pre[i] <= c {
				continue
			}
			v := l[starts[pre[i]+c]:ends[pre[i]+c]]
			code, ok := index[v]
			if !ok {
				if len(dict) == 256 {
					return nil, false
				}
				code = len(dict)
				index[v] = code
				dict = append(dict, v)
			}
			codes = append(codes, byte(code))
		}
		region := binary.AppendUvarint(nil, uint64(len(dict)))
		for _, v := range dict {
			region = binary.AppendUvarint(region, uint64(len(v)))
		}
		text := strings.Join(dict, "")
		region = append(append(region, text...), codes...)
		payload = append(payload, region...)
		dir = binary.AppendUvarint(dir, referenceDirEntry(len(region), referenceFacts(lines, pre, starts, ends, c), strings.ContainsAny(text, "\\\n")))
	}
	foot := len(payload)
	payload = append(payload, dir...)
	payload = append(payload, lineLengths(lines)...)
	return binary.LittleEndian.AppendUint64(payload, uint64(foot)), true
}

// lineLengths is the directory's line lengths of lines.
func lineLengths(lines []string) []byte {
	var b []byte
	for _, l := range lines {
		b = binary.AppendUvarint(b, uint64(len(l)))
	}
	return b
}

// referenceFacts is the two bits of column c's facts: 1 unless every value
// a non-empty line holds there is a canonical integer, 2 unless none looks
// like an integer.
func referenceFacts(lines []string, pre, starts, ends []int, c int) uint64 {
	allCanon, noneInt := true, true
	for i, l := range lines {
		if l == "" || pre[i+1]-pre[i] <= c {
			continue
		}
		switch tuple.IntFormOf(l[starts[pre[i]+c]:ends[pre[i]+c]]) {
		case tuple.IntCanon:
			noneInt = false
		case tuple.IntOther:
			allCanon, noneInt = false, false
		case tuple.IntNone:
			allCanon = false
		}
	}
	var f uint64
	if !allCanon {
		f |= 1
	}
	if !noneInt {
		f |= 2
	}
	return f
}

// referenceDirEntry is a column's directory entry: its region's length,
// its facts and its escape flag.
func referenceDirEntry(region int, facts uint64, escape bool) uint64 {
	d := uint64(region)*8 + facts*2
	if escape {
		d++
	}
	return d
}
