package dfs

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestBlockRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{""},
		{"a"},
		{"a\tb\tc", "d\te", "f"},
		{"", "", ""},
		{"x\t", "\ty", "\t", "\t\t\t"},
		{"esc\\t\\n\\\\", "tab\there", "multi\ncol? no, raw newline"},
		{strings.Repeat("wide\tvalue\t", 200) + "end"},
	}
	for i, lines := range cases {
		for _, compress := range []bool{false, true} {
			data := EncodeBlock(lines, compress)
			n, _, err := header(data)
			if err != nil {
				t.Fatalf("case %d compress=%v: header: %v", i, compress, err)
			}
			if int(n) != len(lines) {
				t.Fatalf("case %d compress=%v: header counts %d records, want %d", i, compress, n, len(lines))
			}
			got, err := DecodeBlock(data)
			if err != nil {
				t.Fatalf("case %d compress=%v: DecodeBlock: %v", i, compress, err)
			}
			if len(got) != len(lines) {
				t.Fatalf("case %d compress=%v: got %d lines want %d", i, compress, len(got), len(lines))
			}
			for j := range lines {
				if got[j] != lines[j] {
					t.Fatalf("case %d compress=%v line %d: got %q want %q", i, compress, j, got[j], lines[j])
				}
			}
		}
	}
}

// TestBlockCompressionShrinksRepetitiveData: a block whose second column
// holds 500 distinct values is too varied for a dictionary and is
// deflated, smaller than raw.
func TestBlockCompressionShrinksRepetitiveData(t *testing.T) {
	lines := make([]string, 500)
	for i := range lines {
		lines[i] = fmt.Sprintf("station-%03d\t%d\tsunny", i%7, 2000+i)
	}
	raw := EncodeBlock(lines, false)
	comp := EncodeBlock(lines, true)
	if len(comp) >= len(raw) || comp[1] != blockFlagFlate {
		t.Fatalf("compressed block (%d bytes, flags %#x) not deflated smaller than raw (%d bytes)", len(comp), comp[1], len(raw))
	}
	got, err := DecodeBlock(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Fatalf("line %d mismatch after compression round-trip", i)
		}
	}
}

// sealPayload puts a header with a valid checksum over stored, which is
// taken for the payload of n records: what a test needs to get a payload of
// its own making past openBlock.
func sealPayload(flags byte, n uint64, stored []byte) []byte {
	data := binary.AppendUvarint([]byte{blockVersion, flags}, n)
	data = binary.LittleEndian.AppendUint32(data, crc32.Update(crc32.Checksum(data, castagnoli), castagnoli, stored))
	return append(data, stored...)
}

// payloadParts is a block payload taken apart, for a test to put back
// together wrong. dir and foot default to what the encoder would write.
type payloadParts struct {
	maxCols, minCols uint64
	counts           []uint64 // written if non-nil, whatever the two above say
	regions          [][]byte
	facts            []uint64 // per column: the facts' two bits, which the default dir holds
	dir              []uint64 // per column: eight times the region's length, twice the facts, plus the flag
	lens             []uint64 // per record: line length
	foot             func(honest uint64) uint64
}

// values returns a column region holding vals.
func values(vals ...string) []byte {
	var region []byte
	for _, v := range vals {
		region = append(binary.AppendUvarint(region, uint64(len(v))), v...)
	}
	return region
}

func (pp payloadParts) bytes() []byte {
	p := binary.AppendUvarint(binary.AppendUvarint(nil, pp.maxCols), pp.minCols)
	for _, c := range pp.counts {
		p = binary.AppendUvarint(p, c)
	}
	for _, r := range pp.regions {
		p = append(p, r...)
	}
	foot := uint64(len(p))
	if pp.foot != nil {
		foot = pp.foot(foot)
	}
	dir := pp.dir
	if dir == nil {
		for c, r := range pp.regions {
			d := uint64(len(r)) << 3
			if c < len(pp.facts) {
				d |= pp.facts[c] << 1
			}
			if holdsEscapeByte(r) {
				d |= 1
			}
			dir = append(dir, d)
		}
	}
	for _, d := range dir {
		p = binary.AppendUvarint(p, d)
	}
	for _, l := range pp.lens {
		p = binary.AppendUvarint(p, l)
	}
	return binary.LittleEndian.AppendUint64(p, foot)
}

// sealed is the block of n records that pp's payload makes, raw.
func (pp payloadParts) sealed(n uint64) []byte { return sealPayload(0, n, pp.bytes()) }

// coded is the block of n records that pp's payload makes, its regions
// taken for dictionary-coded ones.
func (pp payloadParts) coded(n uint64) []byte { return sealPayload(blockFlagDict, n, pp.bytes()) }

// dictRegion returns a dictionary-coded column region: dict, and codes
// indexing it.
func dictRegion(dict []string, codes ...byte) []byte {
	region := binary.AppendUvarint(nil, uint64(len(dict)))
	for _, v := range dict {
		region = binary.AppendUvarint(region, uint64(len(v)))
	}
	for _, v := range dict {
		region = append(region, v...)
	}
	return append(region, codes...)
}

// twoByFourCoded is the payload EncodeBlock makes, compressing, of
// "aaaa\tbb", "cccc\tdd", "aaaa\tbb", "aaaa\tbb": every hostile coded
// payload below is this one with a part of it changed.
func twoByFourCoded() payloadParts {
	return payloadParts{
		maxCols: 2, minCols: 2,
		regions: [][]byte{dictRegion([]string{"aaaa", "cccc"}, 0, 1, 0, 0), dictRegion([]string{"bb", "dd"}, 0, 1, 0, 0)},
		facts:   []uint64{1, 1}, // no value is an integer
		lens:    []uint64{7, 7, 7, 7},
	}
}

// hostileCodedPayloads are checksummed dictionary-coded blocks no encoder
// writes, every one of which fails a whole read.
func hostileCodedPayloads() [][]byte {
	with := func(change func(*payloadParts)) []byte {
		pp := twoByFourCoded()
		change(&pp)
		return pp.coded(4)
	}
	return [][]byte{
		with(func(pp *payloadParts) { pp.regions[1] = dictRegion([]string{"bb", "dd"}, 0, 1, 2, 0) }),               // a code past the dictionary
		with(func(pp *payloadParts) { pp.regions[0] = dictRegion(nil, 0, 0, 0, 0) }),                                // k = 0
		with(func(pp *payloadParts) { pp.regions[0] = append(binary.AppendUvarint(nil, 257), 1, 'a', 0, 0, 0, 0) }), // k = 257
		with(func(pp *payloadParts) { pp.regions[0] = append([]byte{120, 4}, "aaaa\x00\x00\x00\x00"...) }),          // k past the region's room for lengths
		with(func(pp *payloadParts) { pp.regions[0] = dictRegion([]string{"aaaa", "cccc"})[:6] }),                   // a truncated dictionary
		with(func(pp *payloadParts) { pp.regions[0] = append([]byte{2, 4, 9}, "aaaacccc\x00\x01\x00\x00"...) }),     // lengths past the region
		with(func(pp *payloadParts) { pp.regions[1] = dictRegion([]string{"bb", "dd"}, 0, 1, 0) }),                  // a code short
		with(func(pp *payloadParts) { pp.regions[1] = dictRegion([]string{"bb", "dd"}, 0, 1, 0, 0, 1) }),            // and one too many
		with(func(pp *payloadParts) { pp.lens[3] = 1 << 40 }),                                                       // a line longer than the values
	}
}

// twoByThree is the payload EncodeBlock makes of "a\tbb", "c\tdd", "e\tff":
// every hostile payload below is this one with a part of it changed.
func twoByThree() payloadParts {
	return payloadParts{
		maxCols: 2, minCols: 2,
		regions: [][]byte{values("a", "c", "e"), values("bb", "dd", "ff")},
		facts:   []uint64{1, 1}, // no value is an integer
		lens:    []uint64{4, 4, 4},
	}
}

// hostilePayloads are checksummed blocks no encoder writes. The first few
// cannot be read whole; the rest decode, or not, as they will — a directory
// that misstates a line length or a flag is believed: the checksum is what
// says the encoder wrote it — and are here for the fuzzer to start from.
func hostilePayloads() (mustFail, other [][]byte) {
	with := func(change func(*payloadParts)) []byte {
		pp := twoByThree()
		change(&pp)
		return pp.sealed(3)
	}
	mustFail = [][]byte{
		with(func(pp *payloadParts) { pp.foot = func(h uint64) uint64 { return h + 100 } }), // directory offset past the end
		with(func(pp *payloadParts) { pp.foot = func(uint64) uint64 { return 0 } }),         // and before the header
		with(func(pp *payloadParts) { pp.dir = []uint64{6 << 3, 1 << 22} }),                 // directory lengths overrun the regions
		with(func(pp *payloadParts) { pp.lens[1] = 1 << 63 }),                               // a line longer than the payload
		with(func(pp *payloadParts) { pp.lens = pp.lens[:2] }),                              // a line length short
		with(func(pp *payloadParts) { pp.minCols = 3 }),                                     // minCols > maxCols
		with(func(pp *payloadParts) { pp.minCols, pp.maxCols = 0, 0 }),                      // no column at all
		with(func(pp *payloadParts) { pp.minCols, pp.counts = 1, []uint64{2, 3, 2} }),       // a count above maxCols
		with(func(pp *payloadParts) { pp.minCols, pp.counts = 1, []uint64{2, 0, 2} }),       // and one below minCols
		with(func(pp *payloadParts) { pp.regions[1][0] = 0x7f }),                            // a value overruns its region
		with(func(pp *payloadParts) { pp.regions[1][3] = 1<<7 | 5 }),                        // a long length that overruns it
		twoByThree().sealed(1 << 40),                                                        // a record count to size nothing by
	}
	other = [][]byte{
		with(func(pp *payloadParts) { pp.lens[2] = 5 }),                                            // a line length that is not its values'
		with(func(pp *payloadParts) { pp.regions[0][1], pp.dir = '\\', []uint64{6 << 3, 9 << 3} }), // an escape under a clear flag
		with(func(pp *payloadParts) { pp.counts = []uint64{2, 2, 2} }),                             // counts in a uniform block
		with(func(pp *payloadParts) { pp.dir = []uint64{4 << 3, 9 << 3} }),                         // directory lengths under-cover the regions
		with(func(pp *payloadParts) { pp.dir = []uint64{6<<3 | 1, 9<<3 | 1} }),                     // flags set over plain values
		with(func(pp *payloadParts) { pp.lens = append(pp.lens, 4) }),                              // a line length too many
		with(func(pp *payloadParts) { pp.foot = func(h uint64) uint64 { return h - 1 } }),          // the directory begins in a region
		with(func(pp *payloadParts) { pp.facts = []uint64{0, 0} }),                                 // facts that claim IntCanon over letters
		twoByThree().sealed(2), // fewer records than the payload has
	}
	return mustFail, other
}

func TestDecodeBlockRejectsMalformed(t *testing.T) {
	good := EncodeBlock([]string{"a\tb", "c"}, false)
	bad := [][]byte{
		nil,
		{},
		{blockVersion},
		{blockVersion, 0, 1, 0, 0, 0},     // no room for a checksum
		append([]byte{0x01}, good[1:]...), // the version before
		good[:len(good)-1],                // truncated: the checksum is of more
		append(append([]byte{}, good[:3]...), 0xff),        // mangled
		sealPayload(blockFlagFlate, 3, []byte{0xff, 0xff}), // checksummed, and no flate stream
		sealPayload(0, 1, nil),                             // checksummed, and no payload
	}
	hostile, _ := hostilePayloads()
	bad = append(append(bad, hostile...), hostileCodedPayloads()...)
	for i, data := range bad {
		if _, err := DecodeBlock(data); err == nil {
			t.Errorf("case %d: expected error for malformed block %x", i, data)
		}
	}
	if got, err := DecodeBlock(twoByThree().sealed(3)); err != nil || !slices.Equal(got, []string{"a\tbb", "c\tdd", "e\tff"}) {
		t.Fatalf("the payload the hostile ones are made from = %q, %v", got, err)
	}
	if data := twoByThree().sealed(3); !bytes.Equal(data, EncodeBlock([]string{"a\tbb", "c\tdd", "e\tff"}, false)) {
		t.Fatalf("payloadParts and EncodeBlock disagree on the layout:\n%x\n%x", data, EncodeBlock([]string{"a\tbb", "c\tdd", "e\tff"}, false))
	}
	coded := []string{"aaaa\tbb", "cccc\tdd", "aaaa\tbb", "aaaa\tbb"}
	if data := twoByFourCoded().coded(4); !bytes.Equal(data, EncodeBlock(coded, true)) {
		t.Fatalf("payloadParts and EncodeBlock disagree on the coded layout:\n%x\n%x", data, EncodeBlock(coded, true))
	}
	if got, err := DecodeBlock(twoByFourCoded().coded(4)); err != nil || !slices.Equal(got, coded) {
		t.Fatalf("the coded payload the hostile ones are made from = %q, %v", got, err)
	}
}

// TestDecodeBlockHostileLengths pins the two panics arbitrary bytes used
// to reach: a value length of 2^63 or more wrapped the end offset
// negative, past the overrun check and into a slice expression, and a
// record count of 2^40 went straight to make. Both now need a good
// checksum to get that far.
func TestDecodeBlockHostileLengths(t *testing.T) {
	long := twoByThree()
	long.regions[0] = append(binary.AppendUvarint(nil, 1<<63|5), "ace"...)
	for i, data := range [][]byte{
		long.sealed(3),
		twoByThree().sealed(1 << 40),
	} {
		if _, err := DecodeBlock(data); err == nil {
			t.Errorf("case %d: hostile block decoded without error", i)
		}
		var b Batch
		if err := b.decode(data, 0, 2, 0, []bool{true}); err == nil {
			t.Errorf("case %d: hostile block read as a batch without error", i)
		}
	}
}

// TestPrunedReadTouchesCarriedRegionsOnly documents how lazy a read is: past
// the checksum, which vouches for all of a block, it looks at the columns it
// carries up to the last record it returns, and at nothing else. A block
// whose checksum is good and whose second column is malformed — which no
// encoder writes and no flipped bit leaves — reads correctly under a mask
// without that column and fails under any with it; one malformed past
// record 1 reads correctly up to there.
func TestPrunedReadTouchesCarriedRegionsOnly(t *testing.T) {
	pp := twoByThree()
	pp.regions[1][3] = 0x7f // the second value of column 1 claims 127 bytes
	data := pp.sealed(3)
	var b Batch
	for _, need := range [][]bool{{true}, {true, false}} {
		if err := b.decode(data, 0, 3, 0, need); err != nil || b.LineBytes() != 15 {
			t.Fatalf("need %v: err=%v, %d line bytes: want the three records, 15 bytes", need, err, b.LineBytes())
		}
		if got, _ := batchRecords(&b, need); !slices.EqualFunc(got, [][]string{{"a", "·"}, {"c", "·"}, {"e", "·"}}, slices.Equal) {
			t.Fatalf("need %v = %q", need, got)
		}
	}
	for _, need := range [][]bool{nil, {false, true}, {true, true}} {
		if err := b.decode(data, 0, 3, 0, need); err == nil {
			t.Errorf("need %v: the malformed column was carried and nothing failed", need)
		}
		if err := b.decode(data, 0, 1, 0, need); err != nil {
			t.Errorf("need %v, [0,1): %v: the walk stops at the last record asked for", need, err)
		}
	}
	if _, err := DecodeBlock(data); err == nil {
		t.Error("the whole decode carries every column and did not fail")
	}
	if got, err := decodeBlockRange(nil, data, 0, 1); err != nil || !slices.Equal(got, []string{"a\tbb"}) {
		t.Errorf("lines [0,1) = %q, %v", got, err)
	}
}

// indexedLines are 2,500 two-column records, which a raw block seals with
// a row index of two entries (records 1,024 and 2,048). Record 1,500's
// first value is "MARK", which no other record holds.
func indexedLines() []string {
	lines := make([]string, 2500)
	for i := range lines {
		lines[i] = fmt.Sprintf("%05d\tv%d", i*7, i%13)
	}
	lines[1500] = "MARK\tv5"
	return lines
}

// indexedPayload is the payload of the raw block of indexedLines, for a
// test to change and seal again (sealPayload), and where slot j of the
// row index's entry for record r begins in it: 0 for the line length,
// 1+c for column c's value.
func indexedPayload() (payload []byte, slot func(r, j int) int) {
	data := EncodeBlock(indexedLines(), false)
	_, h, _ := header(data)
	payload = slices.Clone(data[h+4:])
	index := len(payload) - 8 - 2*3*8
	return payload, func(r, j int) int { return index + 8*((r/1024-1)*3+j) }
}

// TestIndexedReadStartsAtItsEntry: a read of a raw block that starts at or
// past a row index entry steps from that entry and never looks before it.
// With the length of a value before entry 2,048 made to overrun its
// region, under a good checksum, every read that reaches that value fails
// — from record 0, and from entry 1,024 — and every read from entry 2,048
// on returns the records it asks for, as lines and as batches.
func TestIndexedReadStartsAtItsEntry(t *testing.T) {
	lines := indexedLines()
	payload, _ := indexedPayload()
	if data := EncodeBlock(lines, false); !bytes.Equal(data, sealPayload(0, 2500, payload)) {
		t.Fatal("the payload does not seal back into the block")
	}
	at := bytes.Index(payload, []byte("\x04MARK"))
	if at < 0 || bytes.Count(payload, []byte("MARK")) != 1 {
		t.Fatalf("record 1500's value is not in the payload once")
	}
	payload[at] = 0xff // a length of 0x7f + 'M'<<7: past the bytes left in column 0's region
	bad := sealPayload(0, 2500, payload)
	if _, err := DecodeBlock(bad); err == nil {
		t.Fatal("the whole decode steps over the malformed value and did not fail")
	}
	var b Batch
	for _, r := range [][2]int{{0, 2500}, {0, 1501}, {1024, 1600}, {1400, 2048}} {
		if err := b.decode(bad, r[0], r[1], 0, nil); err == nil {
			t.Errorf("batch %v: the read reaches the malformed value and did not fail", r)
		}
	}
	for _, r := range [][2]int{{0, 1500}, {1024, 1500}, {2048, 2500}, {2100, 2400}, {2500, 2500}, {3000, 4000}} {
		lo, hi := min(r[0], len(lines)), min(r[1], len(lines))
		if got, err := decodeBlockRange(nil, bad, lo, hi); err != nil || !slices.Equal(got, lines[lo:hi]) {
			t.Errorf("lines %v: %v", r, err)
		}
		for _, need := range [][]bool{nil, {true}, {false, true}} {
			if err := b.decode(bad, lo, hi, 0, need); err != nil {
				t.Fatalf("batch %v need %v: %v", r, need, err)
			}
			readsAs(t, fmt.Sprintf("batch %v need %v", r, need), &b, lines[lo:hi], need)
		}
	}

	// Over a bad entry, a whole read fails, and so does any read that steps
	// past it.
	mustFail, other := hostileIndexPayloads()
	for i, data := range mustFail {
		if _, err := DecodeBlock(data); err == nil {
			t.Errorf("hostile index %d: the whole decode did not fail", i)
		}
		for _, r := range [][2]int{{0, 2500}, {1000, 2100}} {
			if err := b.decode(data, r[0], r[1], 0, nil); err == nil {
				t.Errorf("hostile index %d: batch %v stepped past a bad entry and did not fail", i, r)
			}
		}
	}
	for i, data := range other {
		if got, err := DecodeBlock(data); err != nil || !slices.Equal(got, lines) {
			t.Errorf("hostile facts %d: %v", i, err)
		}
	}
}

// hostileIndexPayloads are checksummed raw blocks of indexedLines whose
// row index or column facts no encoder writes. Every one of the first
// (mustFail) holds an entry that a whole read steps past and that does not
// place its record where the step stands, and the read from that entry on
// fails or reads another record. Facts are believed as the directory
// states them, like its flags (other).
func hostileIndexPayloads() (mustFail, other [][]byte) {
	with := func(change func(p []byte, slot func(r, j int) int)) []byte {
		payload, slot := indexedPayload()
		change(payload, slot)
		return sealPayload(0, 2500, payload)
	}
	put := func(r, j int, v func(old uint64, p []byte) uint64) []byte {
		return with(func(p []byte, slot func(r, j int) int) {
			at := slot(r, j)
			binary.LittleEndian.PutUint64(p[at:], v(binary.LittleEndian.Uint64(p[at:]), p))
		})
	}
	mustFail = [][]byte{
		put(2048, 1, func(uint64, []byte) uint64 { return 1 << 40 }),            // an entry past its region
		put(2048, 2, func(uint64, []byte) uint64 { return 3 }),                  // and one before it
		put(1024, 0, func(_ uint64, p []byte) uint64 { return uint64(len(p)) }), // a line length past the line lengths
		put(1024, 1, func(old uint64, _ []byte) uint64 { return old + 6 }),      // a record late
		with(func(p []byte, slot func(r, j int) int) { // entries out of order
			first, second := slot(1024, 0), slot(2048, 0)
			tmp := slices.Clone(p[first:second])
			copy(p[first:], p[second:second+len(tmp)])
			copy(p[second:], tmp)
		}),
	}
	other = [][]byte{
		with(func(p []byte, _ func(r, j int) int) { // column 1's facts claim IntCanon over "v0" to "v12"
			foot := binary.LittleEndian.Uint64(p[len(p)-8:])
			_, w := binary.Uvarint(p[foot:])
			d, _ := binary.Uvarint(p[int(foot)+w:])
			binary.PutUvarint(p[int(foot)+w:], d&^6)
		}),
	}
	return mustFail, other
}

// TestAnyFlippedByteFailsEveryRead: the checksum covers the header and the
// stored payload, so a flipped bit anywhere in an encoded block, raw,
// deflated or dictionary-coded, is an error for every range, both shapes
// and every mask.
func TestAnyFlippedByteFailsEveryRead(t *testing.T) {
	lines := slices.Repeat([]string{"station-01\t20\tsunny", "station-02\t21\tsunny"}, 8)
	varied := make([]string, 260) // a column of 260 distinct values: deflated
	for i := range varied {
		varied[i] = fmt.Sprintf("station-0%d\t%d\tsunny", i%2, i)
	}
	for _, c := range []struct {
		lines []string
		flags byte
	}{{lines, 0}, {varied, blockFlagFlate}, {lines, blockFlagDict}} {
		compress := c.flags != 0
		data := EncodeBlock(c.lines, compress)
		if data[1] != c.flags {
			t.Fatalf("flags %#x, want %#x", data[1], c.flags)
		}
		var b Batch
		for i := range data {
			for bit := 0; bit < 8; bit++ {
				bad := slices.Clone(data)
				bad[i] ^= 1 << bit
				if _, err := DecodeBlock(bad); err == nil {
					t.Fatalf("compress=%v: byte %d bit %d flipped and the block decodes", compress, i, bit)
				}
				if _, err := decodeBlockRange(nil, bad, 3, 4); err == nil {
					t.Fatalf("compress=%v: byte %d bit %d flipped and a range decodes", compress, i, bit)
				}
				for _, need := range [][]bool{nil, {}, {false, true}} {
					if err := b.decode(bad, 0, 1, 0, need); err == nil {
						t.Fatalf("compress=%v: byte %d bit %d flipped and a batch reads under %v", compress, i, bit, need)
					}
				}
			}
		}
	}
}

// blockShapes are record sets that between them meet every branch of the
// layout: a uniform block (no column counts), ragged ones with and without
// one-column records and empty lines, escapes in one column only, and
// values and lines whose lengths take two bytes.
func blockShapes() map[string][]string {
	long := strings.Repeat("v", 200)
	return map[string][]string{
		"uniform":     slices.Repeat([]string{"a\tbb\tccc", "d\t\tf", "\t\t", "g\thh\ti"}, 5),
		"one column":  {"a", "", "bb", "", "", "ccc"},
		"ragged":      slices.Repeat([]string{"a\tb\tc", "", "d", "\t\t", "e\tf", "g\th\ti\tj", "k", "\tl", ""}, 3),
		"ragged wide": slices.Repeat([]string{"a\tb\tc", "d\te", "f\tg\th\ti"}, 4),
		"escapes":     {"a\tb\tc", "d\tx\\y\tf", "g\th\ti", "j\tk\nl\tm", "n\to\tp", "q\tr\ts"},
		"long":        {long + "\tb", "a\t" + long, strings.Repeat("w\t", 150) + "end", "short\tline", long + long + "\t" + long},
		"length 10":   {"0123456789\tb", strings.Repeat("y", '\\') + "\tc", "d\te"}, // a length byte that is one of the two escapes
		// Values about a word long: Batch.AppendLines moves one of up to 8
		// bytes as a word.
		"word sized": {"seven77\teight888\tnine99999", "\tab\t12345678", "x\tnine99999\t1234567"},
	}
}

// TestDecodeBlockRange: every range of a block decodes to exactly those
// records, whatever its shape, compressed and raw; out-of-range bounds
// clamp.
func TestDecodeBlockRange(t *testing.T) {
	for name, want := range blockShapes() {
		for _, compress := range []bool{false, true} {
			data := EncodeBlock(want, compress)
			for lo := 0; lo <= len(want); lo++ {
				for hi := lo; hi <= len(want); hi++ {
					got, err := decodeBlockRange(nil, data, lo, hi)
					if err != nil {
						t.Fatalf("%s compress=%v [%d,%d): %v", name, compress, lo, hi, err)
					}
					if !slices.Equal(got, want[lo:hi]) {
						t.Fatalf("%s compress=%v [%d,%d) = %q, want %q", name, compress, lo, hi, got, want[lo:hi])
					}
				}
			}
			got, err := decodeBlockRange([]string{"kept"}, data, -3, len(want)+9)
			if err != nil || !slices.Equal(got, append([]string{"kept"}, want...)) {
				t.Fatalf("%s compress=%v clamped append = %q, %v", name, compress, got, err)
			}
		}
	}
}

// TestPooledDeflateMatchesFresh: a deflater that has already compressed
// other blocks emits the bytes a newly built one would, so which pooled
// state a block meets never shows in the store.
func TestPooledDeflateMatchesFresh(t *testing.T) {
	var blocks [][]string
	for b := 0; b < 4; b++ {
		lines := make([]string, 300+b) // a column of 300 distinct values: deflated, not coded
		for i := range lines {
			lines[i] = fmt.Sprintf("station-%03d\t%d\tsky-%d", (i*(b+3))%11, 2000+i, b)
		}
		blocks = append(blocks, lines)
	}
	for round := 0; round < 2; round++ { // second round meets used deflaters only
		for b, lines := range blocks {
			raw := EncodeBlock(lines, false)
			_, w := binary.Uvarint(raw[2:])
			var fresh bytes.Buffer
			zw, err := flate.NewWriter(&fresh, flate.BestSpeed)
			if err != nil {
				t.Fatal(err)
			}
			zw.Write(raw[2+w+4:]) // past the checksum
			zw.Close()
			want := sealPayload(blockFlagFlate, uint64(len(lines)), fresh.Bytes())
			if got := EncodeBlock(lines, true); !bytes.Equal(got, want) {
				t.Fatalf("round %d block %d: pooled deflater output differs from a fresh writer's", round, b)
			}
		}
	}
}

// TestBlockDecodeAllocs pins the decode's allocation count as independent
// of the record count: the column counts, one cursor per column, the
// backing string, the line ends and the line slice.
func TestBlockDecodeAllocs(t *testing.T) {
	lines := make([]string, 1000)
	for i := range lines {
		lines[i] = fmt.Sprintf("station-%03d\t%d\tclear-%d", i%50, 20+i%7, i%3)
	}
	for _, compress := range []bool{false, true} {
		data := EncodeBlock(lines, compress)
		// The minimum over single runs, not the mean: under -race
		// sync.Pool drops a quarter of its Puts on purpose, and a decode
		// that has to rebuild its inflater is not the steady state
		// pinned here.
		got := math.Inf(1)
		for i := 0; i < 50; i++ {
			got = min(got, testing.AllocsPerRun(1, func() {
				if _, err := DecodeBlock(data); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if got > 10 {
			t.Errorf("compress=%v: DecodeBlock of 1000 records = %v allocs, want <= 10", compress, got)
		}
	}
}

// TestSealSpillReadBack drives the full pipeline — seal at a tiny block
// size, spill under a tiny budget, read everything back — and checks
// byte-identical recovery plus the resident-budget invariant.
func TestSealSpillReadBack(t *testing.T) {
	for _, compress := range []bool{false, true} {
		fs := NewWith(Options{BlockSize: 256, MemBudget: 512, SpillDir: t.TempDir(), Compress: compress})
		rng := rand.New(rand.NewSource(7))
		var want []string
		for i := 0; i < 400; i++ {
			line := fmt.Sprintf("k%d\tv%d\t%s", rng.Intn(50), i, strings.Repeat("x", rng.Intn(40)))
			want = append(want, line)
			fs.Append("data/in", line)
		}
		if err := fs.SpillErr(); err != nil {
			t.Fatalf("compress=%v: spill error: %v", compress, err)
		}
		if fs.SpilledBlocks() == 0 {
			t.Fatalf("compress=%v: expected spilling under 512-byte budget", compress)
		}
		if got := fs.MaxResidentBytes(); got > 512+256*2 {
			// Budget is enforced at append boundaries; transiently one
			// oversized just-sealed block may exceed it, but not by more
			// than a couple of block sizes.
			t.Fatalf("compress=%v: max resident %d far above budget", compress, got)
		}
		got, err := readLines(fs, "data/in")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("compress=%v: got %d lines want %d", compress, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("compress=%v: line %d: got %q want %q", compress, i, got[i], want[i])
			}
		}
		if err := fs.Close(); err != nil {
			t.Fatalf("compress=%v: close: %v", compress, err)
		}
	}
}

// TestReadBackFailsClosed: a spilled output block that cannot be read back
// — one byte of it flipped in the spill file, or the spill file closed —
// fails readLines and ReadTree with an error that is the block's
// *BlockError, and a Reader's ReadRange, which has no error to return,
// panics with it.
func TestReadBackFailsClosed(t *testing.T) {
	dir := t.TempDir()
	fs := NewWith(Options{BlockSize: 256, MemBudget: 256, SpillDir: dir, Compress: true})
	for p := range 2 {
		lines := make([]string, 200)
		for i := range lines {
			lines[i] = fmt.Sprintf("k%d\t%d\t%x", p, i, i*i*7919)
		}
		fs.Append(fmt.Sprintf("out/part-%d", p), lines...)
	}
	if fs.SpilledBlocks() < 4 {
		t.Fatalf("%d blocks spilled, want several", fs.SpilledBlocks())
	}
	files, err := filepath.Glob(filepath.Join(dir, "clusterbft-spill-*.blk"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill files %v (%v)", files, err)
	}
	spill, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	spill[10] ^= 0x10 // a byte of the first block spilled: block 0 of part-0
	if err := os.WriteFile(files[0], spill, 0o600); err != nil {
		t.Fatal(err)
	}
	failed := func(who string, err error, cause string) {
		t.Helper()
		var bad *BlockError
		if !errors.As(err, &bad) || bad.Path != "out/part-0" || bad.Block != 0 || !strings.Contains(err.Error(), cause) {
			t.Fatalf("%s: err = %v; want a *BlockError for block 0 of out/part-0 naming %q", who, err, cause)
		}
	}
	_, err = readLines(fs, "out/part-0")
	failed("readLines", err, "checksum")
	_, err = fs.ReadTree("out")
	failed("ReadTree", err, "checksum")
	if _, err := readLines(fs, "out/part-1"); err != nil {
		t.Errorf("readLines of the other part: %v", err)
	}
	r, err := fs.OpenReader("out/part-0")
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			err, _ := recover().(error)
			failed("ReadRange", err, "checksum")
		}()
		r.ReadRange(0, 1)
	}()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = fs.ReadTree("out")
	failed("ReadTree after Close", err, "spill file is closed")
}

// TestOneAppendSealsLikeMany: an Append that seals ten blocks and a short
// one leaves the file exactly as eleven Appends sealing one block each do —
// same blocks, the last short, no unsealed tail, same lines read back —
// with and without a spill budget. Appends of a line at a time leave what
// each line sealed alone leaves, one after the other: a block a line, byte
// for byte, and the counters of those blocks.
func TestOneAppendSealsLikeMany(t *testing.T) {
	const blockSize, perBlock, blocks = 256, 16, 10 // 16 lines of 15 bytes + newline
	lines := make([]string, perBlock*blocks+5)      // five lines make a short block
	for i := range lines {
		lines[i] = fmt.Sprintf("key-%04d\t%06d", i%37, i)
	}
	for _, budget := range []int64{0, 512} {
		opts := Options{BlockSize: blockSize, MemBudget: budget, Compress: budget > 0}
		if budget > 0 {
			opts.SpillDir = t.TempDir()
		}
		one, many, single := NewWith(opts), NewWith(opts), NewWith(opts)
		one.Append("f", lines...)
		for i := 0; i < len(lines); i += perBlock {
			many.Append("f", lines[i:min(i+perBlock, len(lines))]...)
		}
		for _, l := range lines {
			single.Append("f", l)
		}
		for _, fs := range []*FS{one, many, single} {
			got, err := readLines(fs, "f")
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, lines) {
				t.Errorf("budget %d: read back %d lines, not the %d appended", budget, len(got), len(lines))
			}
			if fs.BytesWritten() != one.BytesWritten() {
				t.Errorf("budget %d: %d bytes written, one Append writes %d", budget, fs.BytesWritten(), one.BytesWritten())
			}
		}
		for _, fs := range []*FS{one, many} {
			f := fs.files["f"]
			if len(f.blocks) != blocks+1 || f.tail.len() != 0 {
				t.Fatalf("budget %d: %d blocks and %d tail lines, want %d and none", budget, len(f.blocks), f.tail.len(), blocks+1)
			}
			if last := f.blocks[blocks]; last.records != 5 || last.logical != 5*16 {
				t.Fatalf("budget %d: the last block holds %d records (%d bytes), want 5 (80)", budget, last.records, last.logical)
			}
		}
		if one.ResidentBytes() != many.ResidentBytes() || one.SpilledBlocks() != many.SpilledBlocks() ||
			one.CompressedRatio() != many.CompressedRatio() {
			t.Errorf("budget %d: one Append leaves %d resident bytes and %d spilled blocks, eleven leave %d and %d",
				budget, one.ResidentBytes(), one.SpilledBlocks(), many.ResidentBytes(), many.SpilledBlocks())
		}
		f := single.files["f"]
		if len(f.blocks) != len(lines) || f.tail.len() != 0 {
			t.Fatalf("budget %d: one line an Append leaves %d blocks and %d tail lines, want %d and none", budget, len(f.blocks), f.tail.len(), len(lines))
		}
		var raw, stored int64
		for i, b := range f.blocks {
			want, rawLen := encodeBlockStats(lineSet[string]{lines: lines[i : i+1]}, opts.Compress)
			data, err := single.blockData(b)
			if err != nil {
				t.Fatal(err)
			}
			if b.idx != i || b.records != 1 || b.logical != 16 || b.raw != rawLen || !bytes.Equal(data, want) {
				t.Fatalf("budget %d: block %d (idx %d) holds %d records (%d bytes), not line %d sealed alone", budget, i, b.idx, b.records, b.logical, i)
			}
			raw, stored = raw+int64(rawLen), stored+int64(len(want))
		}
		if single.ResidentBytes()+single.SpillBytes() != stored || single.CompressedRatio() != stored*100/raw {
			t.Errorf("budget %d: one line an Append leaves %d resident and %d spilled bytes at ratio %d, its blocks hold %d at %d",
				budget, single.ResidentBytes(), single.SpillBytes(), single.CompressedRatio(), stored, stored*100/raw)
		}
		if err := errors.Join(one.Close(), many.Close(), single.Close()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendNeverReopensABlock: a second Append to a file adds blocks after
// the first one's, whose blocks, the short last one included, stay the same
// blocks holding the same bytes, resident or spilled; a part's tail is
// sealed as one short block of its own ahead of the Append's. The file
// reads back as what was appended, in order.
func TestAppendNeverReopensABlock(t *testing.T) {
	a, b := cycling(40, 7), cycling(25, 5) // 6 bytes and a newline a line: 37 a block
	for _, budget := range []int64{0, 100} {
		fs := NewWith(Options{BlockSize: 256, MemBudget: budget, SpillDir: t.TempDir(), Compress: budget > 0})
		fs.Append("f", a...)
		installPart(fs, "out/part", a)
		for _, path := range []string{"f", "out/part"} {
			f := fs.files[path]
			first := slices.Clone(f.blocks)
			data := make([][]byte, len(first))
			for i, blk := range first {
				var err error
				if data[i], err = fs.blockData(blk); err != nil {
					t.Fatal(err)
				}
			}
			tail := f.tail.appendStrings(nil)
			fs.Append(path, b...)
			f = fs.files[path]
			who := fmt.Sprintf("budget %d, %s", budget, path)
			if len(f.blocks) < len(first) || !slices.Equal(f.blocks[:len(first)], first) {
				t.Fatalf("%s: the first Append's blocks %p are now %p", who, first, f.blocks[:min(len(first), len(f.blocks))])
			}
			for i, blk := range first {
				if got, err := fs.blockData(blk); err != nil || !bytes.Equal(got, data[i]) {
					t.Fatalf("%s: block %d's bytes changed (%v)", who, i, err)
				}
			}
			next := f.blocks[len(first)]
			if len(tail) > 0 {
				got, err := fs.loadBlock(nil, &blockShape{}, next, 0, next.records)
				if err != nil || !slices.Equal(got, tail) {
					t.Fatalf("%s: the tail of %d lines is sealed as %d (%v)", who, len(tail), len(got), err)
				}
			} else if next.records != len(b) {
				t.Fatalf("%s: the Append's first block holds %d records, want its %d lines", who, next.records, len(b))
			}
			if got, err := fs.ReadTree(path); err != nil || !slices.Equal(got, append(slices.Clone(a), b...)) {
				t.Fatalf("%s: reads back %d lines (%v), want the %d appended", who, len(got), err, len(a)+len(b))
			}
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendBehindALostSpillFailsClosed: an Append behind a short block
// that spilled and can no longer be read back adds its own block and
// returns; the read of the file then fails with a *BlockError naming the
// lost block.
func TestAppendBehindALostSpillFailsClosed(t *testing.T) {
	fs := NewWith(Options{BlockSize: 4096, MemBudget: 1, SpillDir: t.TempDir()})
	fs.Append("f", cycling(10, 3)...)
	if fs.SpilledBlocks() != 1 {
		t.Fatalf("%d blocks spilled, want the short one", fs.SpilledBlocks())
	}
	if err := fs.spillF.Close(); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Append behind the lost block panics: %v", p)
			}
		}()
		fs.Append("f", cycling(5, 2)...)
	}()
	_, err := fs.ReadTree("f")
	var be *BlockError
	if !errors.As(err, &be) || be.Path != "f" || be.Block != 0 {
		t.Fatalf("ReadTree = %v, want a *BlockError for block 0 of f", err)
	}
}

// TestClosedStoreFailsClosed: after Close nothing spills again. A later
// Append keeps its blocks resident and the store's spill error names the
// closed store; a read of a block spilled before Close fails with a
// *BlockError that says so; and no spill file outlives Close.
func TestClosedStoreFailsClosed(t *testing.T) {
	dir := t.TempDir()
	fs := NewWith(Options{BlockSize: 4096, MemBudget: 1, SpillDir: dir})
	fs.Append("f", cycling(10, 3)...)
	spilled := fs.SpilledBlocks()
	if spilled == 0 {
		t.Fatal("nothing spilled before Close")
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Append("f", cycling(5, 2)...)
	if fs.SpilledBlocks() != spilled || !errors.Is(fs.SpillErr(), errClosed) {
		t.Errorf("after Close: %d blocks spilled (%d before), spill error %v; want none more, and the closed store named",
			fs.SpilledBlocks(), spilled, fs.SpillErr())
	}
	_, err := fs.ReadTree("f")
	var be *BlockError
	if !errors.As(err, &be) || be.Path != "f" || be.Block != 0 || !errors.Is(err, errClosed) {
		t.Errorf("ReadTree = %v, want a *BlockError for block 0 of f saying the store is closed", err)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) > 0 {
		t.Errorf("spill dir after Close holds %v (%v), want nothing", left, err)
	}
}

// TestBlockEncodeAllocs pins block encoding at a fixed number of
// allocations whatever the record count: the block, laid out before it is
// written, and nothing a record.
func TestBlockEncodeAllocs(t *testing.T) {
	lines := make([]string, 1000)
	for i := range lines {
		lines[i] = fmt.Sprintf("station-%03d\t%d\tclear-%d", i%50, 20+i%7, i%3)
	}
	if got := testing.AllocsPerRun(20, func() { _ = EncodeBlock(lines, false) }); got > 1 {
		t.Errorf("EncodeBlock = %v allocs per 1000 records, want 1", got)
	}
}

// TestSealAllocs pins what sealing a block costs in memory: 1,000
// two-column lines take one object, the block, and no more bytes than it
// and 64 — no span table, no payload built apart and copied behind the
// header, and, dictionary-coded, no dictionary off the stack. The heap
// hands out memory in size classes, so the block counts as the class it
// rounds up to.
func TestSealAllocs(t *testing.T) {
	class := func(n int) int { return cap(slices.Grow([]byte(nil), n)) }
	raw, coded := make([]string, 1000), make([]string, 1000)
	for i := range raw {
		raw[i] = fmt.Sprintf("user%04d\t%d", i*7%1000, i%50)
		coded[i] = fmt.Sprintf("user%04d\t%d", i*7%250, i%50)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		lines    []string
		compress bool
	}{{raw, false}, {coded, true}} {
		// The lines as strings (FS.Seal) and as one buffer cut at their ends
		// (FS.SealBuffer) cost the same.
		buf, ends := joinLines(c.lines)
		for _, encode := range []func() []byte{
			func() []byte { data, _ := encodeBlockStats(lineSet[string]{lines: c.lines}, c.compress); return data },
			func() []byte {
				data, _ := encodeBlockStats(lineSet[[]byte]{buf: buf, ends: ends}, c.compress)
				return data
			},
		} {
			data := encode()
			if c.compress && data[1] != blockFlagDict {
				t.Fatalf("flags %#x: the block is not dictionary-coded", data[1])
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				data = encode()
			}
			runtime.ReadMemStats(&after)
			objects := (after.Mallocs - before.Mallocs) / runs
			held := (after.TotalAlloc - before.TotalAlloc) / runs
			if limit := uint64(class(len(data)) + 64); objects > 1 || held > limit {
				t.Errorf("compress=%v: sealing 1000 lines into a %d-byte block = %d objects, %d bytes; want 1 object, <= %d bytes",
					c.compress, len(data), objects, held, limit)
			}
		}
	}
}

// installPart installs lines at path as a task installs its part file:
// FS.SealBuffer of them laid out in one buffer, which keeps what is short
// of a block as an unsealed tail.
func installPart(fs *FS, path string, lines []string) {
	buf, ends := joinLines(lines)
	fs.Install(path, fs.SealBuffer(buf, ends))
}

// joinLines lays lines back to back in one buffer, as FS.SealBuffer takes
// them: line i ends at ends[i].
func joinLines(lines []string) (buf []byte, ends []int32) {
	ends = make([]int32, len(lines))
	for i, l := range lines {
		buf = append(buf, l...)
		ends[i] = int32(len(buf))
	}
	return buf, ends
}

func TestReaderRangesOnSpilledFile(t *testing.T) {
	fs := NewWith(Options{BlockSize: 128, MemBudget: 256, SpillDir: t.TempDir(), Compress: true})
	defer fs.Close()
	var want []string
	for i := 0; i < 300; i++ {
		line := fmt.Sprintf("row\t%04d", i)
		want = append(want, line)
		fs.Append("t/f", line)
	}
	r, err := fs.OpenReader("t/f")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRecords() != len(want) {
		t.Fatalf("NumRecords=%d want %d", r.NumRecords(), len(want))
	}
	for _, rg := range [][2]int{{0, 1}, {0, 300}, {37, 113}, {250, 300}, {299, 300}, {150, 150}, {-5, 9999}} {
		lo, hi := rg[0], rg[1]
		got := r.ReadRange(lo, hi)
		clo, chi := lo, hi
		if clo < 0 {
			clo = 0
		}
		if chi > len(want) {
			chi = len(want)
		}
		if clo > chi {
			clo = chi
		}
		if len(got) != chi-clo {
			t.Fatalf("ReadRange(%d,%d): got %d lines want %d", lo, hi, len(got), chi-clo)
		}
		for i := range got {
			if got[i] != want[clo+i] {
				t.Fatalf("ReadRange(%d,%d)[%d] = %q want %q", lo, hi, i, got[i], want[clo+i])
			}
		}
	}
}

func TestTreeReaderMatchesReadTree(t *testing.T) {
	fs := NewWith(Options{BlockSize: 64})
	for p := 0; p < 3; p++ {
		for i := 0; i < 40; i++ {
			fs.Append(fmt.Sprintf("out/part-%05d", p), fmt.Sprintf("p%d\t%d", p, i))
		}
	}
	want, err := fs.ReadTree("out")
	if err != nil {
		t.Fatal(err)
	}
	r, err := fs.OpenTreeReader("out")
	if err != nil {
		t.Fatal(err)
	}
	got := r.ReadRange(0, r.NumRecords())
	if len(got) != len(want) {
		t.Fatalf("tree reader: %d lines want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tree reader line %d: got %q want %q", i, got[i], want[i])
		}
	}
	if _, err := fs.OpenTreeReader("nope"); err == nil {
		t.Fatal("expected ErrNotFound for missing tree")
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"0": 0, "123": 123, "4k": 4 << 10, "4K": 4 << 10,
		"2m": 2 << 20, "1G": 1 << 30, " 8m ": 8 << 20,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Fatalf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// The last two overflow int64 once multiplied: a wrapped negative
	// budget would read as "no budget" to enforceBudget.
	for _, bad := range []string{"", "-1", "x", "12q", "k", "1.5m", "9999999999g", "9223372036854775807k"} {
		_, err := ParseBytes(bad)
		if err == nil {
			t.Fatalf("ParseBytes(%q): expected error", bad)
		}
		if !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Fatalf("ParseBytes(%q) error %q does not quote the input", bad, err)
		}
	}
	if got, err := ParseBytes("8589934591g"); err != nil || got != 8589934591<<30 {
		t.Fatalf("largest representable g size = %d, %v", got, err)
	}
}

func TestDeleteReleasesResidentMemory(t *testing.T) {
	fs := NewWith(Options{BlockSize: 64})
	for i := 0; i < 100; i++ {
		fs.Append("d/f", fmt.Sprintf("some line %d", i))
	}
	if fs.ResidentBytes() == 0 {
		t.Fatal("expected sealed resident blocks before delete")
	}
	if err := fs.Delete("d/f"); err != nil {
		t.Fatal(err)
	}
	if got := fs.ResidentBytes(); got != 0 {
		t.Fatalf("resident bytes %d after deleting only file", got)
	}
	if got := fs.ResidentBlocks(); got != 0 {
		t.Fatalf("resident blocks %d after deleting only file", got)
	}
}

// TestDeletedFilesLeaveNoQueue: the eviction queue holds exactly the
// resident blocks where a budget spills them, and nothing where none
// does, so files sealed and deleted leave no entry behind it, whether
// their blocks were resident or spilled when they went.
func TestDeletedFilesLeaveNoQueue(t *testing.T) {
	for _, c := range []struct {
		name   string
		budget int64
	}{{"no budget", 0}, {"budget never reached", 1 << 30}, {"budget spilling", 256}} {
		fs := NewWith(Options{BlockSize: 64, MemBudget: c.budget, SpillDir: t.TempDir()})
		for i := range 1000 {
			path := fmt.Sprintf("d%d/f%d", i%10, i)
			fs.Append(path, fmt.Sprintf("line %d of a file", i), "and one more line, longer than a block")
			queued := int64(len(fs.residentQ))
			if c.budget == 0 && queued != 0 || c.budget > 0 && queued != fs.ResidentBlocks() {
				t.Fatalf("%s, file %d: %d blocks queued, %d resident", c.name, i, queued, fs.ResidentBlocks())
			}
			if i%3 == 0 {
				if err := fs.Delete(path); err != nil {
					t.Fatal(err)
				}
			}
		}
		for d := range 10 {
			fs.DeleteTree(fmt.Sprintf("d%d", d))
		}
		if len(fs.List("")) != 0 || len(fs.residentQ) != 0 || fs.ResidentBlocks() != 0 {
			t.Fatalf("%s: %d files, %d blocks queued, %d resident after deleting every file",
				c.name, len(fs.List("")), len(fs.residentQ), fs.ResidentBlocks())
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSealBufferOutlivesItsBuffer seals lines from one buffer into raw,
// dictionary-coded and deflated blocks and a tail, installs them, and then
// writes over the buffer: what the file reads must not change, because
// nothing installed points into the buffer.
func TestSealBufferOutlivesItsBuffer(t *testing.T) {
	coded := cycling(200, 20)
	deflated := make([]string, 200)
	for i := range deflated {
		deflated[i] = fmt.Sprintf("user%05d\tuser%05d", i*7919%100000, i)
	}
	ragged := []string{"a\\tb\tc", "", "d", "e\tf\tg\th", `x\\y`}
	for _, c := range []struct {
		name     string
		lines    []string
		compress bool
		flags    byte
	}{
		{"raw", append(slices.Clone(deflated), ragged...), false, 0},
		{"dictionary", append(slices.Clone(coded), ragged...), true, blockFlagDict},
		{"flate", append(slices.Clone(deflated), ragged...), true, blockFlagFlate},
	} {
		fs := NewWith(Options{BlockSize: 1024, Compress: c.compress})
		buf, ends := joinLines(c.lines)
		s := fs.SealBuffer(buf, ends)
		if len(s.blocks) == 0 || s.tail.len() == 0 {
			t.Fatalf("%s: %d blocks and %d tail lines, want both", c.name, len(s.blocks), s.tail.len())
		}
		if f := s.blocks[0].data[1]; f != c.flags {
			t.Fatalf("%s: first block's flags %#x, want %#x", c.name, f, c.flags)
		}
		fs.Install("out/part", s)
		for i := range buf {
			buf[i] = '#'
		}
		got, err := readLines(fs, "out/part")
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, c.lines) {
			t.Fatalf("%s: after the buffer was overwritten the file reads %q", c.name, got[:min(3, len(got))])
		}
	}
}

// TestAppendLeavesNoTail: whatever the block size, compressed or not, in
// one Append or many, an appended file is sealed blocks to its last line:
// no tail, every block but an Append's last reaching the block size, and
// every segment of a Reader over it a block, which reads back as the
// lines.
func TestAppendLeavesNoTail(t *testing.T) {
	lines := make([]string, 500)
	for i := range lines {
		lines[i] = strings.Repeat("x", i%23) + fmt.Sprintf("\t%d", i) // one in 23 starts with a tab
		if i%97 == 0 {
			lines[i] = ""
		}
	}
	for _, size := range []int{1, 7, 64, 300, 4096, DefaultBlockSize} {
		for _, compress := range []bool{false, true} {
			fs := NewWith(Options{BlockSize: size, Compress: compress})
			fs.Append("one", lines...)
			for i := 0; i < len(lines); i += 37 {
				fs.Append("many", lines[i:min(i+37, len(lines))]...)
			}
			for path, per := range map[string]int{"one": len(lines), "many": 37} {
				who := fmt.Sprintf("block size %d, compress=%v, %s", size, compress, path)
				f := fs.files[path]
				if f.tail.len() != 0 {
					t.Fatalf("%s: a tail of %d lines", who, f.tail.len())
				}
				end := 0 // records through block i
				for i, b := range f.blocks {
					end += b.records
					if b.logical < int64(size) && end%per != 0 && end != len(lines) {
						t.Fatalf("%s: block %d of %d is short (%d bytes), and no Append ended in it", who, i, len(f.blocks), b.logical)
					}
				}
				r, err := fs.OpenReader(path)
				if err != nil {
					t.Fatal(err)
				}
				for _, seg := range r.segs {
					if seg.blk == nil {
						t.Fatalf("%s: a segment of %d records is not a block", who, seg.n)
					}
				}
				if got, err := r.readAll(); err != nil || !slices.Equal(got, lines) {
					t.Fatalf("%s: reads back %d lines (%v), not the %d appended", who, len(got), err, len(lines))
				}
			}
		}
	}
}

// TestPartKeepsItsTail: a part installed from SealBuffer keeps what is
// short of a block unsealed, held as one string of the lines' bytes and
// their ends, and a Reader serves it as its last segment, read as held
// lines.
func TestPartKeepsItsTail(t *testing.T) {
	lines := cycling(100, 7) // 6 bytes and a newline a line: 37 a block
	fs := NewWith(Options{BlockSize: 256})
	installPart(fs, "out/part", lines)
	f := fs.files["out/part"]
	held := lines[len(lines)-f.tail.len():]
	if len(f.blocks) != 2 || len(held) != 26 || f.tail.bytes() != 7*26 {
		t.Fatalf("%d blocks and a tail of %d lines (%d bytes), want 2 and 26 (182)", len(f.blocks), len(held), f.tail.bytes())
	}
	if f.tail.lines != nil || f.tail.buf != strings.Join(held, "") || f.tail.start != 0 {
		t.Fatalf("the tail is held as %d strings, or as %q from %d: want its lines' bytes back to back", len(f.tail.lines), f.tail.buf, f.tail.start)
	}
	for i := range held {
		if f.tail.ends[i] != int32(6*(i+1)) {
			t.Fatalf("tail line %d ends at %d, want %d", i, f.tail.ends[i], 6*(i+1))
		}
	}
	r, err := fs.OpenReader("out/part")
	if err != nil {
		t.Fatal(err)
	}
	last := r.segs[len(r.segs)-1]
	if last.blk != nil || last.n != len(held) {
		t.Fatalf("the last segment holds %d records in a block (%v), want the %d of the tail", last.n, last.blk != nil, len(held))
	}
	var b Batch
	if next := r.ReadColumns(&b, last.start, r.NumRecords(), nil); next != r.NumRecords() || b.nheld != len(held) || b.Rows() != 0 {
		t.Fatalf("the tail reads to %d as %d held lines and %d rows", next, b.nheld, b.Rows())
	}
	readsAs(t, "the tail", &b, held, nil)

	fs.Install("out/part", fs.SealBuffer(nil, nil)) // no lines: the tail stays
	r, err = fs.OpenReader("out/part")
	if err != nil {
		t.Fatal(err)
	}
	if g := fs.files["out/part"]; g.tail.len() != len(held) || g.tail.buf != f.tail.buf || r.NumRecords() != len(lines) {
		t.Fatalf("after an empty install, %d tail lines of %d in the file, want %d of %d", g.tail.len(), r.NumRecords(), len(held), len(lines))
	}
}

// TestShortReadGrowsByItsRange: a read of 100 records of a uniform block
// of 25,000 grows a fresh batch's arrays by about 100 entries, not by the
// block: the column counts and the offsets are sized by the range read.
func TestShortReadGrowsByItsRange(t *testing.T) {
	lines := make([]string, 25_000)
	for i := range lines {
		lines[i] = fmt.Sprintf("user%05d\tuser%05d", i*7919%25_000, i)
	}
	data := EncodeBlock(lines, false)
	for _, lo := range []int{0, 12_345, 24_900} {
		var b Batch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := b.decode(data, lo, lo+100, 0, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if b.Rows() != 100 {
			t.Fatalf("[%d,%d): %d rows, want 100", lo, lo+100, b.Rows())
		}
		// 100 counts of 8 bytes, 2 columns' 3 words and 2 offsets a value
		// of 4 bytes, the column regions, an eighth more of each.
		if held := after.TotalAlloc - before.TotalAlloc; cap(b.shape.counts) > 100+100/8 || held > 4<<10 {
			t.Errorf("[%d,%d): counts grown to %d, %d bytes allocated; want about 100 entries and under 4 KiB",
				lo, lo+100, cap(b.shape.counts), held)
		}
	}
}

// TestSplitReadsGrowOnce: a Reader's read grows a batch's arrays for the
// records it asks for or the batch reserved, as many as the largest block
// holds at most, so a slot that reads splits of one length grows them at
// its first read whichever split that is: one that ends a block early, the
// file's short last block, or a short last split.
func TestSplitReadsGrowOnce(t *testing.T) {
	lines := make([]string, 4500)
	for i := range lines {
		lines[i] = fmt.Sprintf("user%05d\t%02d", i*7919%4500, i%97)
	}
	fs := NewWith(Options{BlockSize: 13 * 1000}) // 13 bytes a line: blocks of 1,000
	fs.Append("in", lines...)
	r, err := fs.OpenReader("in")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.segs); n != 5 || r.segs[4].n != 500 {
		t.Fatalf("%d blocks, the last of %d records; want 5, the last of 500", n, r.segs[4].n)
	}
	for _, first := range [][2]int{{4000, 5000}, {500, 1500}, {0, 1000}} {
		var b Batch
		read := func(lo, hi int) {
			for at := lo; at < hi; {
				at = r.ReadColumns(&b, at, hi, nil)
				for b.Next() {
				}
			}
		}
		read(first[0], first[1])
		counts, ints := cap(b.shape.counts), cap(b.ints)
		for lo := 0; lo < len(lines); lo += 250 {
			if allocs := testing.AllocsPerRun(1, func() { read(lo, lo+1000) }); allocs != 0 {
				t.Fatalf("first [%d,%d): a later split [%d,%d) allocates %v times", first[0], first[1], lo, lo+1000, allocs)
			}
		}
		if cap(b.shape.counts) != counts || cap(b.ints) != ints || counts < 1000 || counts > 1000+1000/8 {
			t.Errorf("first [%d,%d): arrays of %d counts and %d offsets, then %d and %d; want room for 1,000 records once",
				first[0], first[1], counts, ints, cap(b.shape.counts), cap(b.ints))
		}
	}
	var b Batch
	r.ReadColumns(&b, 2000, 2100, nil)
	if c := cap(b.shape.counts); c > 100+100/8 {
		t.Errorf("a read of 100 records grows the counts to %d", c)
	}
	// Reserved for splits of 1,000, a batch whose first read is a split
	// of 100 grows for 1,000 at once; reserved for more than the largest
	// block holds, for that block.
	for _, reserve := range []int{1000, 5000} {
		var b Batch
		b.Reserve(reserve)
		r.ReadColumns(&b, 4400, 4500, nil)
		counts := cap(b.shape.counts)
		if allocs := testing.AllocsPerRun(1, func() { r.ReadColumns(&b, 1000, 2000, nil) }); allocs != 0 || counts < 1000 || counts > 1000+1000/8 {
			t.Errorf("reserved %d: a first read of 100 records grows the counts to %d, a later one of 1,000 allocates %v times",
				reserve, counts, allocs)
		}
	}
}

// TestPartTailAllocs: the tail SealBuffer leaves costs two objects, its
// lines' bytes in one string and 4 bytes a line for their ends, and no
// string header a line.
func TestPartTailAllocs(t *testing.T) {
	class := func(n int) uint64 { return uint64(cap(slices.Grow([]byte(nil), n))) }
	lines := cycling(2000, 50) // 14,000 bytes as lines, short of a block
	buf, ends := joinLines(lines)
	fs := NewWith(Options{})
	if s := fs.SealBuffer(buf, ends); len(s.blocks) != 0 || s.tail.len() != len(lines) {
		t.Fatalf("%d blocks and %d tail lines, want none and %d", len(s.blocks), s.tail.len(), len(lines))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_ = fs.SealBuffer(buf, ends)
	}
	runtime.ReadMemStats(&after)
	objects := (after.Mallocs - before.Mallocs) / runs
	held := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := class(len(buf)) + class(4*len(lines)); objects > 2 || held > limit {
		t.Errorf("a tail of %d lines (%d bytes) = %d objects, %d bytes; want 2 objects, <= %d bytes",
			len(lines), len(buf), objects, held, limit)
	}
}
