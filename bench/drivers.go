package main

import (
	"runtime"
	"time"

	"mgs/internal/apps"
	"mgs/internal/cache"
	"mgs/internal/core"
	"mgs/internal/harness"
	"mgs/internal/mem"
	"mgs/internal/msg"
	"mgs/internal/obs"
	"mgs/internal/serve"
	"mgs/internal/sim"
	"mgs/internal/stats"
	"mgs/internal/vm"
)

// A layer driver loops one public function of one package for a fixed
// number of operations and reports the host cost of one operation. The
// drivers are independent of the workloads: they say what a layer costs
// in isolation, the prof.* fractions say how much of a workload it is.
type driver struct {
	name, unit string
	run        func() float64
}

const driverRepeats = 5

var drivers = []driver{
	{"drv.sim.dispatch_ns", "ns", func() float64 { return dispatch(200_000, 1, false) }},
	{"drv.sim.dispatch_deep_ns", "ns", func() float64 { return dispatch(200_000, 1024, false) }},
	{"drv.sim.dispatch_allocs", "1/op", func() float64 { return dispatch(200_000, 1, true) }},
	{"drv.sim.switch_ns", "ns", func() float64 { return procSwitch(1, 40_000) }},
	{"drv.sim.switch32_ns", "ns", func() float64 { return procSwitch(32, 40_000) }},
	{"drv.sim.park_wake_ns", "ns", parkWake},
	{"drv.vm.tlb_hit_ns", "ns", func() float64 { return tlbCycle(64) }},
	{"drv.vm.tlb_thrash_ns", "ns", func() float64 { return tlbCycle(65) }},
	{"drv.cache.hit_ns", "ns", func() float64 { return cacheStream(1) }},
	{"drv.cache.miss_ns", "ns", func() float64 { return cacheStream(128) }},
	{"drv.core.access_hit_ns", "ns", func() float64 { return access(1) }},
	{"drv.core.access_stride_ns", "ns", func() float64 { return access(32) }},
	{"drv.core.tlbfault_ns", "ns", tlbFault},
	{"drv.core.remote_fault_ns", "ns", remoteFault},
	{"drv.core.release_ns", "ns", release},
	{"drv.core.diff_clean_ns", "ns", func() float64 { return diff(func(int) bool { return false }, false) }},
	{"drv.core.diff_sparse_ns", "ns", func() float64 { return diff(sparse, false) }},
	{"drv.core.diff_dense_ns", "ns", func() float64 { return diff(func(int) bool { return true }, false) }},
	{"drv.core.diff_allocs", "1/op", func() float64 { return diff(sparse, true) }},
	{"drv.msg.send_intra_ns", "ns", func() float64 { return send(nil) }},
	{"drv.msg.send_uniform_ns", "ns", func() float64 { return send(msg.NewUniform()) }},
	{"drv.msg.send_tiered_ns", "ns", func() float64 { return send(msg.NewTiered(0)) }},
	{"drv.msync.lock_local_ns", "ns", func() float64 { return lockLoop(8, 4, 1, "token") }},
	{"drv.msync.lock_handoff_ns", "ns", func() float64 { return lockLoop(2, 1, 2, "token") }},
	{"drv.msync.lock_mcs_handoff_ns", "ns", func() float64 { return lockLoop(2, 1, 2, "mcs") }},
	{"drv.msync.barrier_tree_ns", "ns", func() float64 { return barrierLoop("tree") }},
	{"drv.msync.barrier_dissem_ns", "ns", func() float64 { return barrierLoop("dissemination") }},
	{"drv.stats.charge_ns", "ns", statsCharge},
	{"drv.obs.counter_add_ns", "ns", counterAdd},
	{"drv.obs.hist_observe_ns", "ns", histObserve},
	{"drv.serve.generate_ns_per_req", "ns", serveGenerate},
	{"drv.harness.construct_p32_ms", "ms", func() float64 { return construct(harness.NewConfig(32, 4)) }},
	{"drv.harness.construct_p1024_ms", "ms", func() float64 {
		return construct(harness.NewConfig(1024, 4, harness.WithTopology(msg.NewTiered(0))))
	}},
	// The observer budget: Water under each armed observer relative to a
	// nil one (roadmap aim 4).
	{"drv.obs.armed_metrics_overhead_frac", "frac", func() float64 { return observed(obs.New) }},
	{"drv.obs.armed_trace_null_overhead_frac", "frac", func() float64 {
		return observed(func() *obs.Observer { return obs.New().AddSink(obs.FuncSink(func(obs.Event) {})) })
	}},
	{"drv.obs.armed_profiler_overhead_frac", "frac", func() float64 {
		return observed(func() *obs.Observer { return obs.New().EnableProfiling() })
	}},
}

// runDrivers returns the median of driverRepeats runs of every driver.
func runDrivers() map[string]float64 {
	out := make(map[string]float64, len(drivers))
	for _, d := range drivers {
		xs := make([]float64, driverRepeats)
		for i := range xs {
			xs[i] = d.run()
		}
		out[d.name] = median(xs)
	}
	return out
}

// nsPerOp is d spread over n operations; n comes from a simulator
// counter in some drivers, so zero is reported as zero, not as Inf.
func nsPerOp[N int | int64](d time.Duration, n N) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// must stops on an error no driver input can cause.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// dispatch runs n events through Engine.After with `pending` chains in
// flight. Every event schedules its successor with a fresh closure, as
// the simulator's own call sites do, so the closure allocation is part
// of the cost. It returns ns per event, or allocations per event.
func dispatch(n, pending int, allocs bool) float64 {
	e := sim.NewEngine()
	done := 0
	var fire func()
	fire = func() {
		done++
		if done+pending <= n {
			e.After(sim.Time(pending), func() { fire() })
		}
	}
	for i := 0; i < pending; i++ {
		e.After(sim.Time(i+1), func() { fire() })
	}
	m0 := mallocCount()
	t0 := time.Now()
	must(e.Run())
	d := time.Since(t0)
	if allocs {
		return float64(mallocCount()-m0) / float64(done)
	}
	return nsPerOp(d, done)
}

// procSwitch has nprocs coroutines yield to the engine n times in all:
// one Sleep is one switch out to the engine and one back.
func procSwitch(nprocs, n int) float64 {
	e := sim.NewEngine()
	for i := 0; i < nprocs; i++ {
		e.NewProc(i, 0, func(p *sim.Proc) {
			for k := 0; k < n/nprocs; k++ {
				p.Sleep(1)
			}
		})
	}
	t0 := time.Now()
	must(e.Run())
	return nsPerOp(time.Since(t0), n)
}

func parkWake() float64 {
	const n = 40_000
	e := sim.NewEngine()
	e.NewProc(0, 0, func(p *sim.Proc) {
		for k := 0; k < n; k++ {
			e.AtOn(p, p.Clock()+1, func() { p.Wake(e.Now()) })
			p.Park()
		}
	})
	t0 := time.Now()
	must(e.Run())
	return nsPerOp(time.Since(t0), n)
}

// tlbCycle looks pages up round robin in a 64-entry TLB, filling on a
// miss: 64 pages always hit, 65 always miss and evict.
func tlbCycle(pages int) float64 {
	const n = 1_000_000
	t := vm.NewTLB(64)
	for p := 0; p < pages; p++ {
		t.Insert(vm.Page(p), vm.Read)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p := vm.Page(i % pages)
		if _, ok := t.Lookup(p); !ok {
			t.Insert(p, vm.Read)
		}
	}
	return nsPerOp(time.Since(t0), n)
}

// cacheStream reads line after line across `pages` 1K frames through
// one processor's modelled 64K cache: one page stays resident (hits),
// 128 pages are twice the cache (every access misses and evicts).
func cacheStream(pages int) float64 {
	const n = 1_000_000
	cfg := harness.NewConfig(4, 4)
	d := cache.NewDomain(4, cfg.PageSize, cfg.CacheHW, cfg.Cache)
	frames := make([]*mem.Frame, pages)
	dirs := make([]*cache.Dir, pages)
	for i := range frames {
		frames[i] = mem.NewFrame(uint64(i+1), cfg.PageSize)
		dirs[i] = cache.NewDir(0, cfg.PageSize, cfg.CacheHW.LineSize)
		d.Register(frames[i], dirs[i])
	}
	lines := cfg.PageSize / cfg.CacheHW.LineSize
	touch := func(i int) {
		pg, ln := (i/lines)%pages, i%lines
		d.Access(0, frames[pg], dirs[pg], ln*cfg.CacheHW.LineSize, false)
	}
	for i := 0; i < pages*lines; i++ {
		touch(i)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		touch(i)
	}
	return nsPerOp(time.Since(t0), n)
}

// onProc0 builds a machine, lets prepare allocate on it, runs the body
// prepare returns on processor 0 only, and returns what it measured.
func onProc0(cfg harness.Config, prepare func(m *harness.Machine) func(c *harness.Ctx) float64) float64 {
	m := harness.NewMachine(cfg)
	body := prepare(m)
	var out float64
	_, err := m.RunPer(func(i int) func(*harness.Ctx) {
		if i != 0 {
			return func(*harness.Ctx) {}
		}
		return func(c *harness.Ctx) { out = body(c) }
	})
	must(err)
	return out
}

// access loads through core.System.Access on the translation hit path,
// cycling over `pages` TLB-resident pages: one page stays in the
// per-processor micro-cache, 32 pages miss it on every access and take
// the TLB lookup.
func access(pages int) float64 {
	const n = 1_000_000
	cfg := harness.NewConfig(2, 1)
	return onProc0(cfg, func(m *harness.Machine) func(*harness.Ctx) float64 {
		base := m.Alloc(pages * cfg.PageSize)
		at := func(i int) vm.Addr { return base + vm.Addr((i%pages)*cfg.PageSize) }
		return func(c *harness.Ctx) float64 {
			for i := 0; i < pages; i++ {
				c.LoadI64(at(i))
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				c.LoadI64(at(i))
			}
			return nsPerOp(time.Since(t0), n)
		}
	})
}

// tlbFault cycles one processor over twice as many pages as its TLB
// holds with the software layer disabled (C = P), so every access is a
// software TLB fill. It returns host ns per fill.
func tlbFault() float64 {
	const n = 50_000
	cfg := harness.NewConfig(4, 4)
	pages := 2 * cfg.TLBSize
	return onProc0(cfg, func(m *harness.Machine) func(*harness.Ctx) float64 {
		base := m.Alloc(pages * cfg.PageSize)
		fills := func() int64 { return m.Stats.Counter("tlbfill.local") + m.Stats.Counter("tlbfill.null") }
		return func(c *harness.Ctx) float64 {
			for i := 0; i < pages; i++ {
				c.LoadI64(base + vm.Addr(i*cfg.PageSize))
			}
			f0, t0 := fills(), time.Now()
			for i := 0; i < n; i++ {
				c.LoadI64(base + vm.Addr((i%pages)*cfg.PageSize))
			}
			return nsPerOp(time.Since(t0), fills()-f0)
		}
	})
}

// remoteFault reads, from processor 0 at C=1, one word of each of many
// pages homed on processor 1: every access is an inter-SSMP read fault
// (request, page transfer, TLB fill). It returns host ns per fault.
func remoteFault() float64 {
	const pages = 4096
	cfg := harness.NewConfig(2, 1)
	return onProc0(cfg, func(m *harness.Machine) func(*harness.Ctx) float64 {
		base := m.AllocHomed(pages*cfg.PageSize, func(int) int { return 1 })
		return func(c *harness.Ctx) float64 {
			f0, t0 := m.Stats.Counter("fault.read"), time.Now()
			for i := 0; i < pages; i++ {
				c.LoadI64(base + vm.Addr(i*cfg.PageSize))
			}
			return nsPerOp(time.Since(t0), m.Stats.Counter("fault.read")-f0)
		}
	})
}

// release has two single-processor SSMPs write different words of one
// page and release it, over and over: every release is a round that
// invalidates the other writer and merges a diff, and every next store
// faults the page back in. It returns host ns per release.
func release() float64 {
	const rounds = 2000
	cfg := harness.NewConfig(2, 1)
	m := harness.NewMachine(cfg)
	page := m.Alloc(cfg.PageSize)
	t0 := time.Now()
	_, err := m.Run(func(c *harness.Ctx) {
		for k := 0; k < rounds; k++ {
			c.StoreI64(page+vm.Addr(8*c.ID), int64(k))
			c.Fence()
		}
	})
	must(err)
	return nsPerOp(time.Since(t0), m.Stats.Counter("rel"))
}

func sparse(i int) bool { return i%128 < 8 }

// diff computes the twin/current difference of a 1K page whose changed
// bytes the predicate picks. The ns form reuses one DiffBuf (the
// protocol's steady state); the allocs form counts what the owning
// core.ComputeDiff allocates per call.
func diff(changed func(i int) bool, allocs bool) float64 {
	const n = 100_000
	twin, cur := make([]byte, 1024), make([]byte, 1024)
	for i := range twin {
		twin[i], cur[i] = byte(i), byte(i)
		if changed(i) {
			cur[i]++
		}
	}
	var buf core.DiffBuf
	buf.Compute(twin, cur)
	core.ComputeDiff(twin, cur)
	sink := 0
	if allocs {
		m0 := mallocCount()
		for i := 0; i < n/2; i++ {
			sink += core.ComputeDiff(twin, cur).Len()
		}
		return float64(mallocCount()-m0) / float64(n/2)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += buf.Compute(twin, cur).Len()
	}
	d := time.Since(t0)
	runtime.KeepAlive(sink)
	return nsPerOp(d, n)
}

// send chains n 64-byte messages through Network.Send, each handler
// sending the next, on a 1024-processor, 256-SSMP network. A nil
// topology keeps every message inside SSMP 0; otherwise each message
// crosses to another SSMP. One send is two events: arrival and handler
// completion.
func send(topo msg.Topology) float64 {
	const n, p, c = 100_000, 1024, 4
	e := sim.NewEngine()
	procs := make([]*sim.Proc, p)
	for i := range procs {
		procs[i] = e.NewProc(i, 0, func(*sim.Proc) {})
	}
	costs := harness.NewConfig(p, c).Msg
	costs.Topology = topo
	net := msg.NewNetwork(e, procs, c, costs)
	left, at := n, 0
	var next func(done sim.Time)
	next = func(done sim.Time) {
		if left == 0 {
			return
		}
		left--
		to := (at + 1) % c
		if topo != nil {
			// 1 to 255 SSMPs further on: never the sender's own.
			to = (at + c*(1+left*37%255)) % p
		}
		from := at
		at = to
		net.Send(from, to, done, 64, 0, next)
	}
	e.After(1, func() { next(e.Now()) })
	t0 := time.Now()
	must(e.Run())
	return nsPerOp(time.Since(t0), n)
}

// lockLoop has the first `users` processors of a (p, c) machine take
// and drop lock 0 in a loop. One user keeps the token local; two users
// in different SSMPs hand it back and forth. It returns host ns per
// acquire/release pair.
func lockLoop(p, c, users int, algo string) float64 {
	const n = 4000
	m := harness.NewMachine(harness.NewConfig(p, c, harness.WithLockAlgo(algo)))
	t0 := time.Now()
	_, err := m.RunPer(func(i int) func(*harness.Ctx) {
		if i >= users {
			return func(*harness.Ctx) {}
		}
		return func(c *harness.Ctx) {
			for k := 0; k < n; k++ {
				c.Acquire(0)
				c.Release(0)
			}
		}
	})
	must(err)
	return nsPerOp(time.Since(t0), n*users)
}

// barrierLoop returns host ns per barrier episode at P=32, C=4.
func barrierLoop(algo string) float64 {
	const n = 400
	m := harness.NewMachine(harness.NewConfig(32, 4, harness.WithBarrierAlgo(algo)))
	t0 := time.Now()
	_, err := m.Run(func(c *harness.Ctx) {
		for k := 0; k < n; k++ {
			c.Barrier(0)
		}
	})
	must(err)
	return nsPerOp(time.Since(t0), n)
}

func statsCharge() float64 {
	const n = 5_000_000
	c := stats.NewCollector(32)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c.Charge(i&31, stats.Category(i&3), 1)
	}
	return nsPerOp(time.Since(t0), n)
}

func counterAdd() float64 {
	const n = 1_000_000
	names := [...]string{"fault.read", "fault.write", "tlbfill.local", "rel", "diff", "inv", "rreq", "twin"}
	r := obs.NewRegistry()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.Add(names[i&7], 1)
	}
	return nsPerOp(time.Since(t0), n)
}

func histObserve() float64 {
	const n = 2_000_000
	h := obs.NewRegistry().Histogram("drv", nil)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(int64(i&0xffff) * 16)
	}
	return nsPerOp(time.Since(t0), n)
}

func serveGenerate() float64 {
	w := serve.DefaultWorkload(false, 1)
	t0 := time.Now()
	tr := w.Generate(32)
	return nsPerOp(time.Since(t0), len(tr.Reqs))
}

// construct times harness.NewMachine. The machine then runs empty
// bodies, untimed, so its processor goroutines end.
func construct(cfg harness.Config) float64 {
	t0 := time.Now()
	m := harness.NewMachine(cfg)
	d := time.Since(t0)
	_, err := m.Run(func(*harness.Ctx) {})
	must(err)
	return float64(d.Nanoseconds()) / 1e6
}

// observed returns how much longer Water{N:64,Iters:2} at P=32, C=4
// takes with the observer mk builds than with none, as a share of the
// unobserved time: one run of each, back to back.
func observed(mk func() *obs.Observer) float64 {
	water := func(o *obs.Observer) float64 {
		app := &apps.Water{N: 64, Iters: 2}
		t0 := time.Now()
		_, err := harness.RunApp(app, harness.NewConfig(32, 4, harness.WithObserver(o)))
		must(err)
		return time.Since(t0).Seconds()
	}
	base := water(nil)
	return water(mk())/base - 1
}
