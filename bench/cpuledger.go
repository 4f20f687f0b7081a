package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The CPU ledger attributes every sample of a runtime/pprof CPU profile
// to one layer, so the shares sum to 100 % by construction. A sample
// belongs to the nearest frame, leaf upward, that lies in one of the
// repository's packages: time in runtime.mallocgc called from a map task
// is mapred's, time in sha256 called from a digest writer is digest's.

const modulePrefix = "clusterbft/internal/"

// ledgerLayers are the buckets of the ledger, in print order. The last
// two take the samples with no frame in a listed package.
var ledgerLayers = []string{
	"pig", "analyze", "mapred", "tuple", "digest", "dfs", "core", "bft",
	"pool", "cluster", "obs", "runtime_gc", "other",
}

// gcFrames mark a stack as garbage-collector work when no repository
// frame claims it: background mark workers, the sweeper and the
// scavenger run on their own goroutines.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcDrain", "runtime.gcMarkTermination", "runtime.gcStart",
}

// layerOf names the bucket of one stack, given leaf first.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, modulePrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range ledgerLayers[:len(ledgerLayers)-2] {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	for _, fn := range stack {
		for _, gc := range gcFrames {
			if strings.HasPrefix(fn, gc) {
				return "runtime_gc"
			}
		}
	}
	return "other"
}

// stackSample is one profile sample: function names leaf first, and the
// CPU nanoseconds it stands for.
type stackSample struct {
	stack []string
	nanos int64
}

// cpuLedger sums samples per layer.
type cpuLedger map[string]int64

func (l cpuLedger) add(samples []stackSample) {
	for _, s := range samples {
		l[layerOf(s.stack)] += s.nanos
	}
}

// shares returns each layer's percentage of all samples; every listed
// layer is present, and the values sum to 100 unless there are none.
func (l cpuLedger) shares() map[string]float64 {
	var total int64
	for _, v := range l {
		total += v
	}
	out := make(map[string]float64, len(ledgerLayers))
	for _, name := range ledgerLayers {
		out[name] = 0
		if total > 0 {
			out[name] = 100 * float64(l[name]) / float64(total)
		}
	}
	return out
}

// parseProfile decodes the samples of a gzipped pprof CPU profile. The
// standard library exposes no reader for the format it writes, so this
// reads the five protobuf fields the ledger needs (profile.proto: sample,
// location, function, string_table and their ids) and skips the rest.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = make(map[uint64][]uint64) // location id -> function ids, leaf first
		funcNames = make(map[uint64]uint64)   // function id -> string index
		strs      []string
	)
	err = fields(raw, func(num int, varint uint64, body []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(body, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(body, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(body, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{nanos: int64(s.values[len(s.values)-1])} // [samples, cpu ns]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// fields walks the top-level fields of one protobuf message. A varint
// field arrives in varint, a length-delimited one in body; fixed-width
// fields are skipped.
func fields(msg []byte, visit func(num int, varint uint64, body []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			msg = msg[n:]
			if err := visit(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			if err := visit(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return fmt.Errorf("short fixed field %d", num)
			}
			msg = msg[w:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field in either encoding: one
// value per field, or packed into a length-delimited body.
func appendVarints(dst []uint64, varint uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, varint)
	}
	for len(packed) > 0 {
		v, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		packed = packed[n:]
	}
	return dst
}
