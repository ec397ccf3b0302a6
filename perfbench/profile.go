package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// moduleLayer is the package→layer table the CPU profile is bucketed with.
// A sample is charged to the innermost frame from a compstor module (or
// from the benchmark itself), so runtime and standard-library frames count
// for their nearest compstor caller. A module missing here leaves its
// samples unattributed, and the traced run fails when those exceed
// maxUnattributed.
var moduleLayer = map[string]string{
	"textgen": "setup",

	"sim": "engine",

	"flash":  "device",
	"ftl":    "device",
	"ssd":    "device",
	"nvme":   "device",
	"pcie":   "device",
	"energy": "device",

	"isps":  "isps",
	"minfs": "isps",
	"cpu":   "isps",

	"apps":      "kernels",
	"appset":    "kernels",
	"awkx":      "kernels",
	"gzipx":     "kernels",
	"bzip2x":    "kernels",
	"grepx":     "kernels",
	"coreutils": "kernels",
	"shx":       "kernels",
	"splitscan": "kernels",

	"core":    "host",
	"cluster": "host",
	"serve":   "host",
	"chaos":   "host",

	"obs":   "obs",
	"trace": "obs",

	// Frames of the benchmark's own package: workload procs, read-back.
	"bench": "bench",
	// Stacks with no compstor caller: mostly the Go scheduler switching
	// simulated processes, and background garbage collection.
	"runtime": "runtime",
	"gc":      "runtime",
}

// maxUnattributed is the largest share of samples the traced run may leave
// outside every bucket.
const maxUnattributed = 0.10

// cpuBuckets is CPU time per module, in seconds.
type cpuBuckets map[string]float64

func (b cpuBuckets) total() float64 {
	t := 0.0
	for _, v := range b {
		t += v
	}
	return t
}

// layer sums the buckets of every module in the layer.
func (b cpuBuckets) layer(name string) float64 {
	t := 0.0
	for m, v := range b {
		if moduleLayer[m] == name {
			t += v
		}
	}
	return t
}

// unattributed is the CPU time of samples no bucket claimed.
func (b cpuBuckets) unattributed() float64 {
	t := 0.0
	for m, v := range b {
		if _, ok := moduleLayer[m]; !ok {
			t += v
		}
	}
	return t
}

// moduleOf names the bucket a function belongs to: the compstor module
// ("compstor/internal/apps/awkx.(*interp).eval" → "awkx"), "bench" for the
// benchmark's main package, "" for anything else.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "compstor/internal/"); ok {
		pkg := rest
		if i := strings.Index(pkg, "."); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg[strings.LastIndex(pkg, "/")+1:]
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// gcRoots mark the background goroutines of the garbage collector.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// bucketOf charges one stack (leaf first) to a bucket. A stack with no
// compstor or benchmark frame belongs to the runtime: the Go scheduler,
// the profiler, or the race detector's runtime under -race.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if gcRoots[fn] {
			return "gc"
		}
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return "runtime"
}

// bucketProfile decodes a gzipped pprof CPU profile and returns CPU
// seconds per bucket.
func bucketProfile(data []byte, into cpuBuckets) error {
	p, err := parseProfile(data)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		into[bucketOf(stack)] += float64(s.cpuNS) / 1e9
	}
	return nil
}

// profile is the part of profile.proto the bucketing reads.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

type sample struct {
	locs  []uint64
	cpuNS int64
}

// parseProfile decodes the gzipped protobuf that runtime/pprof writes:
// samples (field 2), locations (4), functions (5) and the string table (6).
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		samples []sample
		locLine = map[uint64][]uint64{} // location → function ids
		funName = map[uint64]int64{}    // function id → string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []int64
			if err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) < 2 {
				return errors.New("profile: sample without a cpu value")
			}
			s.cpuNS = vals[1]
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLine[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: map[uint64][]string{}}
	for id, fns := range locLine {
		for _, f := range fns {
			if i := funName[f]; i >= 0 && int(i) < len(strs) {
				p.locFuncs[id] = append(p.locFuncs[id], strs[i])
			}
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field that arrived either as one
// varint (b == nil) or packed into a length-delimited run.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or, for length-delimited fields, its bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			v := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, v); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}
