package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"syscall"
	"time"

	"mgs/internal/harness"
)

// span is one timed interval at a layer boundary. The benchmark records
// them from outside, around its calls into the simulator; Parent is the
// ID of the enclosing span (0 for the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer was created
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs use it.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// counts are the exact-repeat counters of one pass, summed over its
// points. Any change to one is a change to the modelled machine.
type counts struct {
	Sims, Events, Accesses, SimCycles     int64
	InterMsgs, IntraMsgs, InterBytes      int64
	PageFaults, TLBFills, Diffs, Releases int64
	LockOps, LinkWaitCycles, DirBytes     int64
}

// passResult is what one pass over a workload's points measured.
type passResult struct {
	wall, cpu, sysCPU                time.Duration
	construct, appSetup, run, verify time.Duration
	gcPause                          time.Duration
	mallocs, allocBytes              uint64
	counts                           counts
	digests                          []uint64 // one per point
	errs                             []string // one per failed simulation
}

func cpuTimes() (total, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	u := time.Duration(ru.Utime.Nano())
	s := time.Duration(ru.Stime.Nano())
	return u + s, s
}

// runPass runs the points once, one simulation at a time on the calling
// goroutine. Only the interval from machine construction through Verify
// is measured; the digest is computed after each point's interval
// closes so hashing a memory image never counts as simulator time.
func runPass(pts []point, tr *tracer, parent int) passResult {
	var r passResult
	var ms0, ms1 runtime.MemStats
	for _, p := range pts {
		app, cfg := p.mk(), p.cfg()
		ps := tr.begin(p.name, parent)
		runtime.ReadMemStats(&ms0)
		cpu0, sys0 := cpuTimes()
		t0 := time.Now()

		s := tr.begin("construct", ps)
		m := harness.NewMachine(cfg)
		tr.end(s)
		t1 := time.Now()

		s = tr.begin("app_setup", ps)
		app.Setup(m)
		tr.end(s)
		t2 := time.Now()

		s = tr.begin("run", ps)
		res, err := m.Run(app.Body)
		tr.end(s)
		t3 := time.Now()

		if err == nil {
			s = tr.begin("verify", ps)
			err = app.Verify(m)
			tr.end(s)
		}
		t4 := time.Now()
		cpu1, sys1 := cpuTimes()
		runtime.ReadMemStats(&ms1)
		tr.end(ps)

		r.wall += t4.Sub(t0)
		r.cpu += cpu1 - cpu0
		r.sysCPU += sys1 - sys0
		r.construct += t1.Sub(t0)
		r.appSetup += t2.Sub(t1)
		r.run += t3.Sub(t2)
		r.verify += t4.Sub(t3)
		r.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
		r.mallocs += ms1.Mallocs - ms0.Mallocs
		r.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		r.counts.Sims++
		if err != nil {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", p.name, err))
			r.digests = append(r.digests, 0)
			continue
		}
		r.counts.add(m, res)
		r.digests = append(r.digests, digest(m, res))
	}
	return r
}

func (c *counts) add(m *harness.Machine, res harness.Result) {
	cc := m.DSM.CacheCounters()
	c.Events += m.Eng.Dispatched()
	c.Accesses += cc.Accesses()
	c.SimCycles += int64(res.Cycles)
	c.InterMsgs += res.InterMsgs
	c.IntraMsgs += res.IntraMsgs
	c.InterBytes += res.InterBytes
	c.PageFaults += m.Stats.Counter("fault.read") + m.Stats.Counter("fault.write")
	c.TLBFills += m.Stats.Counter("tlbfill.local") + m.Stats.Counter("tlbfill.null")
	c.Diffs += m.Stats.Counter("diff")
	c.Releases += m.Stats.Counter("rel")
	c.LockOps += res.LockTotal
	c.LinkWaitCycles += res.LinkWait
	c.DirBytes += res.Dir.Bytes
}

// digest folds everything a run computed — cycle count, breakdown,
// traffic, protocol counters, directory footprint and the final memory
// image — into one FNV-64 value. Two passes of one run must agree on it
// point by point; across commits it shows drift in simulated results.
func digest(m *harness.Machine, res harness.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(int64(res.Cycles))
	for _, pp := range res.Breakdown.PerProc {
		for _, v := range pp {
			put(int64(v))
		}
	}
	d := res.Dir
	for _, v := range []int64{
		res.LockHits, res.LockTotal, res.InterMsgs, res.InterBytes, res.IntraMsgs, res.LinkWait,
		int64(d.Pages), int64(d.RmtEntries), int64(d.ExactEntries), int64(d.CoarsePages), d.Bytes,
	} {
		put(v)
	}
	for _, c := range res.Counters {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	h.Write(m.DSM.SnapshotMemory())
	return h.Sum64()
}

// combine folds a pass's per-point digests into the workload's
// sim_digest.
func combine(ds []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range ds {
		binary.LittleEndian.PutUint64(b[:], d)
		h.Write(b[:])
	}
	return h.Sum64()
}
