package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// cpuShareBuckets are the layers a CPU profile's self time is sorted into.
// Each is reported as <bucket>.cpu_share except the runtime ones, which
// keep their own names. They partition every sample, so the shares sum
// to one.
var cpuShareBuckets = []string{
	"sim", "netsim", "fluid", "routing", "routing.rip", "routing.dbf", "routing.bgp",
	"trace", "obs", "core", "sweep", "runtime.gc", "runtime.malloc", "other",
}

func shareMetric(bucket string) string {
	switch bucket {
	case "runtime.gc":
		return "runtime.gc_cpu_share"
	case "runtime.malloc":
		return "runtime.malloc_cpu_share"
	}
	return bucket + ".cpu_share"
}

// cpuProfile is a running CPU profile written to a file.
type cpuProfile struct {
	f    *os.File
	done bool
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{f: f}, nil
}

func (p *cpuProfile) stop() {
	if !p.done {
		p.done = true
		pprof.StopCPUProfile()
		p.f.Close()
	}
}

// finish stops the profile and returns its per-bucket CPU shares.
func (p *cpuProfile) finish() (map[string]float64, error) {
	name := p.f.Name()
	p.stop()
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return bucketShares(samples), nil
}

// frame is one function on a sample's stack.
type frame struct {
	name, file string
}

// sample is one profile sample: its CPU nanoseconds and its stack, leaf
// first, with inlined calls expanded.
type sample struct {
	value int64
	stack []frame
}

// bucketShares sorts each sample's self time into a bucket and returns
// every bucket's share of the total (all zero for an empty profile).
func bucketShares(samples []sample) map[string]float64 {
	var total int64
	sums := map[string]int64{}
	for _, s := range samples {
		sums[classify(s.stack)] += s.value
		total += s.value
	}
	out := make(map[string]float64, len(cpuShareBuckets))
	for _, b := range cpuShareBuckets {
		out[shareMetric(b)] = 0
		if total > 0 {
			out[shareMetric(b)] = float64(sums[b]) / float64(total)
		}
	}
	return out
}

// gcFrames mark a stack as garbage-collector work wherever they appear.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.gcAssistAlloc1": true,
	"runtime.gcDrain": true, "runtime.gcDrainN": true, "runtime.markroot": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true, "runtime.sweepone": true,
	"runtime.gcStart": true, "runtime.gcMarkDone": true, "runtime.gcMarkTermination": true,
	"runtime.wbBufFlush": true, "runtime.wbBufFlush1": true, "runtime.bulkBarrierPreWrite": true,
	"runtime.scanobject": true, "runtime.greyobject": true, "runtime.deductSweepCredit": true,
}

// classify picks the bucket of a stack's self time. Garbage collection and
// allocation are recognised anywhere on the stack. Other runtime and
// standard-library time (map lookups, copying, sorting) is charged to the
// nearest caller in this module, so each layer carries the library work it
// asks for.
func classify(stack []frame) string {
	for _, f := range stack {
		if gcFrames[f.name] || strings.HasPrefix(f.name, "runtime.gcDrain") {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.name, "runtime.mallocgc") {
			return "runtime.malloc"
		}
	}
	for _, f := range stack {
		if b, ok := moduleBucket(f); ok {
			return b
		}
	}
	return "other"
}

// moduleBucket maps a frame of this module (or of the benchmark itself,
// which counts as other) to its bucket.
func moduleBucket(f frame) (string, bool) {
	pkg := funcPackage(f.name)
	switch {
	case pkg == "main":
		return "other", true
	case !strings.HasPrefix(pkg, "routeconv"):
		return "", false
	}
	switch strings.TrimPrefix(pkg, "routeconv/internal/") {
	case "sim":
		return "sim", true
	case "netsim":
		if strings.HasSuffix(f.file, "internal/netsim/fluid.go") {
			return "fluid", true
		}
		return "netsim", true
	case "routing/rip":
		return "routing.rip", true
	case "routing/dbf":
		return "routing.dbf", true
	case "routing/bgp":
		return "routing.bgp", true
	case "trace":
		return "trace", true
	case "obs":
		return "obs", true
	case "core", "scenario":
		return "core", true
	case "sweep":
		return "sweep", true
	}
	if strings.HasPrefix(pkg, "routeconv/internal/routing") {
		return "routing", true
	}
	return "other", true
}

// funcPackage extracts the import path from a symbol name such as
// "routeconv/internal/sim.(*Simulator).Run" or "sort.Slice[...]".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// parseProfile decodes a gzipped pprof protobuf into samples, using the
// "cpu" sample value. It reads only the fields it needs.
func parseProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type rawFunc struct{ name, file int64 }
	var (
		sampleTypes []int64 // string index of each value's type
		raws        []rawSample
		locLines    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcs       = map[uint64]rawFunc{}
		strs        []string
	)
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var rs rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(w, v, b, func(x uint64) { rs.locs = append(rs.locs, x) })
				case 2:
					return appendVarints(w, v, b, func(x uint64) { rs.values = append(rs.values, int64(x)) })
				}
				return nil
			})
			raws = append(raws, rs)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var fn rawFunc
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			funcs[id] = fn
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	valueIdx := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("no sample types")
	}
	out := make([]sample, 0, len(raws))
	for _, rs := range raws {
		if valueIdx >= len(rs.values) {
			continue
		}
		s := sample{value: rs.values[valueIdx]}
		for _, loc := range rs.locs {
			for _, fid := range locLines[loc] {
				fn := funcs[fid]
				s.stack = append(s.stack, frame{name: str(fn.name), file: str(fn.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// walkFields calls fn for each field of a protobuf message: the varint
// value for wire type 0, the payload for wire type 2. Fixed-width fields
// are skipped.
func walkFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding: one
// value (wire type 0) or a packed run (wire type 2).
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
