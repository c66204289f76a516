package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed protobuf runtime/pprof
// writes: enough of profile.proto to turn each CPU sample into a
// leaf-first list of function names. It exists so the benchmark needs
// no module beyond the standard library.

// stackSample is one profile sample: how many times the stack was seen
// and its frames, leaf first, inlined calls expanded.
type stackSample struct {
	count int64
	funcs []string
}

// pbuf walks the fields of one protobuf message.
type pbuf struct{ b []byte }

var errProto = errors.New("pprof: malformed protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the following field: its number, and either a varint
// value (wire type 0) or the bytes of a length-delimited payload (wire
// type 2). Fixed-width fields are skipped over and returned empty.
func (p *pbuf) next() (field int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = errProto
	}
	return field, v, payload, err
}

func (p *pbuf) skip(n int) error {
	if len(p.b) < n {
		return errProto
	}
	p.b = p.b[n:]
	return nil
}

// repeated appends a repeated integer field that may arrive packed
// (payload) or one value at a time (v).
func repeated(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	p := pbuf{payload}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a pprof CPU profile into stack samples. The
// count is the profile's first sample value (samples/count).
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	top := pbuf{raw}
	for len(top.b) > 0 {
		field, _, payload, err := top.next()
		if err != nil {
			return nil, err
		}
		msg := pbuf{payload}
		switch field {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			for len(msg.b) > 0 {
				f, v, pl, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, v, pl)
				case 2:
					vals, err = repeated(vals, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				f, v, pl, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					line := pbuf{pl}
					for len(line.b) > 0 {
						lf, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			for len(msg.b) > 0 {
				f, v, _, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{count: s.count}
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					ss.funcs = append(ss.funcs, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// Frames that mean "the Go scheduler is switching goroutines" and "the
// allocator or collector is working", matched by prefix.
var (
	schedFrames = []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.gopark", "runtime.goready",
		"runtime.schedule", "runtime.findRunnable", "runtime.futex", "runtime.park_m", "runtime.mcall",
	}
	mallocGCFrames = []string{
		"runtime.mallocgc", "runtime.gc", "runtime.scanobject", "runtime.bgsweep", "runtime.bgscavenge",
	}
	handoffFrames = []string{
		"mgs/internal/sim.(*Proc).block", "mgs/internal/sim.(*Engine).run", "mgs/internal/sim.(*Engine).NewProc.func",
	}
	heapFrames = []string{
		"mgs/internal/sim.(*eventQueue).Push", "mgs/internal/sim.(*eventQueue).Pop", "mgs/internal/sim.(*eventQueue).sift",
	}
	counterLookupFrames = []string{"mgs/internal/obs.(*Registry).Counter"}
)

func hasPrefixIn(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func stackHas(funcs []string, prefixes []string) bool {
	for _, f := range funcs {
		if hasPrefixIn(f, prefixes) {
			return true
		}
	}
	return false
}

// bucketOf assigns a stack to exactly one bucket. Walking from the leaf
// towards the root, the first frame that is a scheduler frame, an
// allocator/collector frame or a frame of one of the simulator's
// packages decides; other runtime and library frames are charged to
// whoever called them. A stack with none of these is "other".
func bucketOf(funcs []string) string {
	const prefix = "mgs/internal/"
	for _, f := range funcs {
		switch {
		case hasPrefixIn(f, schedFrames):
			return "rt_sched"
		case hasPrefixIn(f, mallocGCFrames):
			return "rt_malloc_gc"
		case strings.HasPrefix(f, prefix):
			pkg := f[len(prefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, p := range profPkgs {
				if p == pkg {
					return pkg
				}
			}
		}
	}
	return "other"
}

// attribute turns stack samples into the prof.* metrics. The primary
// buckets partition the samples, so their fractions sum to 1; the three
// sub-buckets overlap them and track the hotspots the roadmap wrote
// down (scheduler time under the coroutine handoff, the event heap, the
// by-name counter lookup).
func attribute(samples []stackSample) map[string]float64 {
	buckets := map[string]int64{}
	var total, handoff, heap, lookup int64
	for _, s := range samples {
		total += s.count
		b := bucketOf(s.funcs)
		buckets[b] += s.count
		if b == "rt_sched" && stackHas(s.funcs, handoffFrames) {
			handoff += s.count
		}
		if stackHas(s.funcs, heapFrames) {
			heap += s.count
		}
		if stackHas(s.funcs, counterLookupFrames) {
			lookup += s.count
		}
	}
	frac := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(n) / float64(total)
	}
	out := map[string]float64{
		"prof.samples":                 float64(total),
		"prof.rt_sched_frac":           frac(buckets["rt_sched"]),
		"prof.rt_malloc_gc_frac":       frac(buckets["rt_malloc_gc"]),
		"prof.other_frac":              frac(buckets["other"]),
		"prof.sim_handoff_frac":        frac(handoff),
		"prof.sim_heap_frac":           frac(heap),
		"prof.obs_counter_lookup_frac": frac(lookup),
	}
	for _, p := range profPkgs {
		out["prof."+p+"_frac"] = frac(buckets[p])
	}
	return out
}
