// Package harness assembles complete DSSMP machines from the substrate
// packages and runs applications and experiments on them. It is the
// packaging layer the cmd/ tools, benchmarks, and examples all share.
package harness

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"

	"mgs/internal/cache"
	"mgs/internal/core"
	"mgs/internal/fault"
	"mgs/internal/mem"
	"mgs/internal/msg"
	"mgs/internal/msync"
	"mgs/internal/msync/algo"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
	"mgs/internal/vm"
)

// Config describes one DSSMP configuration: the machine's shape and
// its protocol and cache cost tables (core.Config, whose fields it
// promotes: P, C, PageSize, TLBSize, Protocol, Variant, Cache and
// CacheHW), and what lies around the protocol — the network, faults,
// observers and synchronization. At C = P the software layer makes
// null MGS calls, exactly as in the paper's 32-processor runs.
type Config struct {
	core.Config

	// Fault, when non-empty, interposes the deterministic fault-injecting
	// reliable transport on every inter-SSMP message (internal/fault,
	// msg.Network.AttachFault). An empty plan is the identity: the run is
	// bit-identical to one that never heard of faults.
	Fault fault.Plan

	// Obs, when non-nil, is the observability spine the machine reports
	// through: trace sinks see typed protocol/transport/sync events, the
	// metrics registry collects the run's counters, gauges, and
	// histograms, and (if profiling is enabled on the observer) every
	// simulated cycle is attributed to a (processor, component, object)
	// key. Nil keeps every emission path structurally detached; runs are
	// bit-identical either way.
	Obs *obs.Observer

	Msg  msg.Costs
	Sync algo.Costs

	// LockAlgo and BarrierAlgo name the synchronization algorithms from
	// internal/msync/algo ("token", "ticket", "mcs", "tournament" /
	// "tree", "sense", "dissemination", "mcstree", "tournament"). Empty
	// selects the paper's defaults, token and tree.
	LockAlgo    string
	BarrierAlgo string
}

// Option mutates a Config under construction (NewConfig).
type Option func(*Config)

// WithPageSize sets the virtual page size in bytes (power of two).
func WithPageSize(bytes int) Option { return func(c *Config) { c.PageSize = bytes } }

// WithTLBSize sets the per-processor software TLB capacity.
func WithTLBSize(entries int) Option { return func(c *Config) { c.TLBSize = entries } }

// WithInterSSMPDelay sets the fixed inter-SSMP message latency (the
// paper's emulated-LAN knob, Figure 9's x-axis).
func WithInterSSMPDelay(d sim.Time) Option { return func(c *Config) { c.Msg.InterDelay = d } }

// WithFaultPlan attaches a deterministic fault-injection plan to the
// inter-SSMP transport.
func WithFaultPlan(p fault.Plan) Option { return func(c *Config) { c.Fault = p } }

// WithObserver attaches an observability spine to the machine.
func WithObserver(o *obs.Observer) Option { return func(c *Config) { c.Obs = o } }

// WithTopology selects the inter-SSMP interconnect: msg.NewUniform()
// (the default, the paper's fixed-delay LAN), msg.NewMesh2D(), or
// msg.NewTiered(siteSize). The spec is sized against the machine shape
// when the network is built.
func WithTopology(t msg.Topology) Option { return func(c *Config) { c.Msg.Topology = t } }

// WithLockAlgo selects the lock algorithm by name (algo.LockNames);
// "" selects the default, the paper's token lock.
func WithLockAlgo(name string) Option { return func(c *Config) { c.LockAlgo = name } }

// WithBarrierAlgo selects the barrier algorithm by name
// (algo.BarrierNames); "" selects the default, the paper's two-level
// tree barrier.
func WithBarrierAlgo(name string) Option { return func(c *Config) { c.BarrierAlgo = name } }

// NewConfig returns the calibrated configuration for a P-processor
// machine with clusters of c processors and the paper's parameters —
// 1K-byte pages, a 64-entry software TLB, and a 1000-cycle inter-SSMP
// delay — then applies the options in order.
func NewConfig(p, c int, opts ...Option) Config {
	cfg := Config{
		Config: core.Config{
			P: p, C: c, PageSize: 1024, TLBSize: 64,
			Protocol: core.DefaultCosts(),
			Variant:  core.DefaultVariant(),
			Cache: cache.Costs{
				Hit: 2, Local: 11, Remote: 38, TwoParty: 42,
				ThreeParty: 63, Software: 425, CleanPerLine: 40,
			},
			CacheHW: cache.DefaultParams(),
		},
		Msg: msg.Costs{
			SendOverhead: 100, HandlerEntry: 500, PerHop: 2,
			BytesPerCycle: 1, InterDelay: 1000, InterOverhead: 800,
		},
		Sync: algo.DefaultCosts(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// The largest machine, TLB, page and cache Validate accepts. Each is
// allocated on the host in proportion to its size — a coroutine, a TLB
// and a cache table per processor when the machine is built, each
// processor's TLB whole, a page for every frame, twin and in-flight
// image of it, and a table entry per 16-line chunk of every processor's
// cache — so a larger value ends the process out of memory instead of
// failing the one run. All lie far past the shapes the experiments use
// (P up to 1024, TLBs of 1 to 256 entries, 256-byte to 2 KB pages,
// Alewife's 64 KB caches).
const (
	maxProcs      = 1 << 12
	maxTLBSize    = 1 << 16
	maxPageSize   = 1 << 16
	maxCacheBytes = 1 << 20
)

// Validate reports the first reason the configuration cannot be built:
// a machine shape that does not divide into SSMPs, a machine, TLB,
// page, cache, delay, bandwidth or jitter the substrate cannot size,
// cache or page dimensions the cache model cannot mask
// (cache.Params.Validate), a protocol variant whose fields contradict
// each other, a fault plan whose rates or delay bound are out of range,
// a trace sink that would panic on its first event, or a lock or
// barrier name no registered algorithm answers to.
func (cfg Config) Validate() error {
	_, _, err := cfg.algos()
	return err
}

// algos validates the configuration and resolves its algorithm names.
func (cfg Config) algos() (la algo.NewLock, ba algo.NewBarrier, err error) {
	v := cfg.Variant
	switch {
	case cfg.P <= 0 || cfg.C <= 0 || cfg.P%cfg.C != 0:
		err = fmt.Errorf("bad machine shape P=%d C=%d: want P > 0 and C > 0 dividing P", cfg.P, cfg.C)
	case cfg.P > maxProcs:
		err = fmt.Errorf("bad processor count %d: want at most %d (every processor's coroutine, TLB and cache table are allocated on the host)", cfg.P, maxProcs)
	case cfg.TLBSize <= 0:
		err = fmt.Errorf("bad TLB size %d: want at least one entry", cfg.TLBSize)
	case cfg.TLBSize > maxTLBSize:
		err = fmt.Errorf("bad TLB size %d: want at most %d entries (every processor's TLB is allocated whole on the host)", cfg.TLBSize, maxTLBSize)
	case cfg.PageSize > maxPageSize:
		err = fmt.Errorf("bad page size %d: want at most %d bytes (every frame, twin and page image is allocated whole on the host)", cfg.PageSize, maxPageSize)
	case cfg.CacheHW.CacheBytes > maxCacheBytes:
		err = fmt.Errorf("bad cache size %d: want at most %d bytes (every processor's cache table is sized from it on the host)", cfg.CacheHW.CacheBytes, maxCacheBytes)
	case cfg.Msg.InterDelay < 0:
		err = fmt.Errorf("bad inter-SSMP delay %d: want a non-negative cycle count", cfg.Msg.InterDelay)
	case cfg.Msg.BytesPerCycle < 1:
		err = fmt.Errorf("bad DMA bandwidth %d bytes per cycle: want at least 1", cfg.Msg.BytesPerCycle)
	case cfg.Msg.Jitter < 0:
		err = fmt.Errorf("bad message jitter %d: want a non-negative cycle count", cfg.Msg.Jitter)
	case v.LazyRelease && v.UpdateProtocol:
		err = fmt.Errorf("lazy release runs no eager release round, so it cannot be combined with the update protocol, which only modifies that round")
	}
	if err == nil {
		err = cfg.CacheHW.Validate(cfg.PageSize)
	}
	if err == nil {
		err = cfg.Fault.Validate()
	}
	if err == nil {
		err = cfg.Obs.Validate()
	}
	if err == nil {
		la, err = algo.LockByName(cfg.LockAlgo)
	}
	if err == nil {
		ba, err = algo.BarrierByName(cfg.BarrierAlgo)
	}
	return la, ba, err
}

// Machine is one assembled DSSMP.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Net   *msg.Network
	DSM   *core.System
	Sync  *msync.System
	Stats *stats.Collector
	Procs []*sim.Proc

	bodies []func(c *Ctx)
	ran    bool
}

// NewMachine assembles a machine, panicking on a configuration that
// fails Validate. An empty algorithm name is replaced by the default it
// resolves to.
func NewMachine(cfg Config) *Machine {
	la, ba, err := cfg.algos()
	if err != nil {
		panic("harness: " + err.Error())
	}
	cfg.LockAlgo = cmp.Or(cfg.LockAlgo, algo.DefaultLock)
	cfg.BarrierAlgo = cmp.Or(cfg.BarrierAlgo, algo.DefaultBarrier)
	m := &Machine{Cfg: cfg, Eng: sim.NewEngine(), bodies: make([]func(*Ctx), cfg.P)}
	for i := 0; i < cfg.P; i++ {
		i := i
		m.Procs = append(m.Procs, m.Eng.NewProc(i, 0, func(p *sim.Proc) {
			if m.bodies[i] != nil {
				m.bodies[i](&Ctx{m: m, Proc: p, ID: i, NProcs: cfg.P})
			}
		}))
	}
	m.Net = msg.NewNetwork(m.Eng, m.Procs, cfg.C, cfg.Msg)
	m.Stats = stats.NewCollector(cfg.P)
	st := m.Stats
	// Attach the observability spine before the subsystems construct, so
	// their gauges and histograms register on the observer's registry
	// and the profiler (if armed) sees every charge from cycle zero.
	st.Use(cfg.Obs)
	m.Net.OnHandler = func(proc int, cyc sim.Time) { st.Charge(proc, stats.MGS, cyc) }
	m.Net.AttachFault(cfg.Fault, &st.Fault)
	m.Net.Obs = cfg.Obs
	space := vm.NewSpace(cfg.PageSize, cfg.P)
	m.DSM = core.New(m.Eng, m.Net, space, st, m.Procs, cfg.Config)
	m.DSM.Obs = cfg.Obs
	m.Sync = msync.New(m.Eng, m.DSM, m.Net, st, cfg.Sync, cfg.Obs)
	m.Sync.SetAlgos(la, ba)
	return m
}

// Alloc reserves shared virtual memory (page aligned).
func (m *Machine) Alloc(bytes int) vm.Addr { return m.DSM.Space().AllocPages(bytes) }

// AllocPacked reserves shared memory with the given alignment, packed
// against the previous allocation (so small objects share pages — the
// false-sharing layout).
func (m *Machine) AllocPacked(bytes, align int) vm.Addr {
	return m.DSM.Space().Alloc(bytes, align)
}

// AllocHomed reserves a page-aligned region whose pages are explicitly
// placed: homeOf(i) names the processor whose memory holds the region's
// i-th page. This is the distributed-array layout of the paper's
// applications (each block lives in its owner's memory).
func (m *Machine) AllocHomed(bytes int, homeOf func(page int) int) vm.Addr {
	sp := m.DSM.Space()
	base := sp.AllocPages(bytes)
	npages := (bytes + m.Cfg.PageSize - 1) / m.Cfg.PageSize
	for i := 0; i < npages; i++ {
		sp.SetHome(sp.PageOf(base)+vm.Page(i), homeOf(i)%m.Cfg.P)
	}
	return base
}

// FillWords writes f(i) to the i-th of the n shared words from va,
// calling f once per word in order, with no simulated cost (setup). It
// is the backdoor's write half: the range is walked a page at a time,
// each page's home frame is resolved once (core.System.BackdoorFrame,
// which creates it on first touch, so pages are first touched in
// address order) and its words are written in place. va must be word
// aligned.
func (m *Machine) FillWords(va vm.Addr, n int, f func(i int) uint64) {
	for i := 0; i < n; {
		for d := m.pageWords(va+vm.Addr(8*i), n-i); len(d) > 0; d = d[8:] {
			binary.LittleEndian.PutUint64(d, f(i))
			i++
		}
	}
}

// VisitWords calls f(i, w) with the i-th of the n shared words from va,
// in order, with no simulated cost (verification), and returns the
// first error f returns, visiting no word after it. It walks the range
// as FillWords does and reads the home copies, which are current after
// every release point.
func (m *Machine) VisitWords(va vm.Addr, n int, f func(i int, w uint64) error) error {
	for i := 0; i < n; {
		for d := m.pageWords(va+vm.Addr(8*i), n-i); len(d) > 0; d = d[8:] {
			if err := f(i, binary.LittleEndian.Uint64(d)); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}

// pageWords returns the bytes of at most n words from va to the end of
// va's page, in the page's home frame.
func (m *Machine) pageWords(va vm.Addr, n int) []byte {
	f, off := m.DSM.BackdoorFrame(va)
	if off&7 != 0 {
		panic(fmt.Sprintf("harness: backdoor address %#x is not word aligned", va))
	}
	return f.Data[off:min(len(f.Data), off+8*n)]
}

// SetF64 initializes a shared float64 without simulated cost (setup).
func (m *Machine) SetF64(va vm.Addr, v float64) { m.SetI64(va, int64(math.Float64bits(v))) }

// GetF64 reads a shared float64 without simulated cost (verification).
func (m *Machine) GetF64(va vm.Addr) float64 { return math.Float64frombits(uint64(m.GetI64(va))) }

// SetI64 initializes a shared int64 without simulated cost.
func (m *Machine) SetI64(va vm.Addr, v int64) {
	m.FillWords(va, 1, func(int) uint64 { return uint64(v) })
}

// GetI64 reads a shared int64 without simulated cost.
func (m *Machine) GetI64(va vm.Addr) (v int64) {
	m.VisitWords(va, 1, func(_ int, w uint64) error { v = int64(w); return nil })
	return v
}

// Result summarizes one run.
type Result struct {
	// Cycles is the parallel execution time: the final virtual time.
	Cycles sim.Time
	// Breakdown is the per-category cycle attribution (Figures 6–10).
	Breakdown stats.Breakdown
	// LockHits/LockTotal aggregate MGS lock behaviour (Figure 11).
	LockHits, LockTotal int64
	// Message traffic.
	InterMsgs, InterBytes, IntraMsgs int64
	// LinkWait is the cycles messages spent queued behind busy links on
	// contended topologies (0 under the default Uniform LAN).
	LinkWait int64
	// Dir is the Server-side directory footprint at end of run
	// (core.System.DirectoryStats): how many pages hold server state, how
	// many sparse per-SSMP copy records and directory entries exist.
	// Deterministic, so it rides the bit-identity comparisons like every
	// other field.
	Dir core.DirectoryStats
	// Counters are the protocol event counters, sorted.
	Counters []string
	// Fault is the fault-injection transport's accounting (all zeros on
	// fault-free runs).
	Fault stats.Fault
	// Engine is the host work the run took. Deterministic like every
	// other field: the same run gives the same counts on any host.
	Engine EngineCounts
}

// EngineCounts is what a run cost the simulator itself, in exact counts
// rather than seconds. TestEngineCountsGolden pins them for small
// shapes of the benchmark workloads, so a change that doubles switches
// or stops reusing a recycled record fails go test.
type EngineCounts struct {
	// Events is the number of events the engine took off its queue and
	// dispatched: sim.Engine.Dispatched less the elided resumes.
	Events int64
	// Switches is the number of processor resumes: each is one coroutine
	// switch into a body and one back out.
	Switches int64
	// Elided is the number of Sleeps and Yields that returned without a
	// switch because nothing was due first (sim.Engine.Elided). Each
	// would otherwise have been one more Event and one more Switch.
	Elided int64
	// FrontHits is the number of Events dispatched from the queue's
	// front slot without entering the heap (sim.Engine.FrontHits).
	FrontHits int64
	// PeakQueue is the most events that were pending at once.
	PeakQueue int
	// The counts of each mem.Pool of recycled records: msg's deliveries,
	// algo's and core's message records, core's page and diff buffers,
	// and the SSMPs' frames and directories (summed).
	Deliveries, SyncRecords, Messages, PageBufs, DiffBufs, Frames, Dirs mem.Counts
	// PageBlocks and ChunkBlocks are the blocks the machine's two
	// carving stores allocated: of frame bytes (mem.Store) and of
	// cache chunks (cache.Store). A page or chunk allocated on its own
	// instead of carved leaves them short.
	PageBlocks, ChunkBlocks int64
	// TableBlocks, IndexBlocks and QueueBlocks are the blocks the
	// machine's page-table and queue stores allocated
	// (core.System.TableBlocks): of page-table chunks and of page-table
	// indexes, summed over the one store of every TLB's tables and the
	// two of every SSMP's, and of delayed-update-queue runs. A table
	// chunk or index, or a queue, allocated on its own instead of
	// carved leaves them short.
	TableBlocks, IndexBlocks, QueueBlocks int64
	// DirWords is the sharer words the machine's frame directories were
	// carved with (cache.Store.DirWords): a line's sharer set is as wide
	// as its SSMP needs, so it falls with the cluster size.
	DirWords int64
	// Lookups is the number of by-name counter lookups the run itself
	// made (obs.Registry.Lookups across Engine.Run). Charge sites hold
	// resolved handles, so it is at most one per counter name.
	Lookups int64
}

// Run executes body on every processor and collects the result. A
// machine runs once.
func (m *Machine) Run(body func(c *Ctx)) (Result, error) {
	return m.RunPer(func(i int) func(c *Ctx) { return body })
}

// RunPer executes bodyFor(i) on processor i.
func (m *Machine) RunPer(bodyFor func(i int) func(c *Ctx)) (Result, error) {
	if m.ran {
		panic("harness: machine already ran")
	}
	m.ran = true
	for i := range m.bodies {
		m.bodies[i] = bodyFor(i)
	}
	lookups := m.Stats.Registry().Lookups()
	if err := m.Eng.Run(); err != nil {
		return Result{}, err
	}
	lookups = m.Stats.Registry().Lookups() - lookups
	hits, total := m.Sync.LockStats()
	e := EngineCounts{
		Events:      m.Eng.Dispatched() - m.Eng.Elided(),
		Switches:    m.Eng.Switches(),
		Elided:      m.Eng.Elided(),
		FrontHits:   m.Eng.FrontHits(),
		PeakQueue:   m.Eng.PeakQueue(),
		Lookups:     lookups,
		Deliveries:  m.Net.Deliveries(),
		SyncRecords: m.Sync.Records(),
	}
	e.Messages, e.PageBufs, e.DiffBufs, e.Frames, e.Dirs = m.DSM.Pools()
	e.PageBlocks, e.ChunkBlocks = m.DSM.Blocks()
	e.TableBlocks, e.IndexBlocks, e.QueueBlocks = m.DSM.TableBlocks()
	e.DirWords = m.DSM.DirWords()
	return Result{
		Cycles:     m.lastClock(),
		Breakdown:  m.Stats.Breakdown(),
		LockHits:   hits,
		LockTotal:  total,
		InterMsgs:  m.Net.Counters.InterMsgs,
		InterBytes: m.Net.Counters.InterBytes,
		IntraMsgs:  m.Net.Counters.IntraMsgs,
		LinkWait:   m.Net.Counters.LinkWaitCycles,
		Dir:        m.DSM.DirectoryStats(),
		Counters:   m.Stats.Counters(),
		Fault:      m.Stats.Fault,
		Engine:     e,
	}, nil
}

func (m *Machine) lastClock() sim.Time {
	var t sim.Time
	for _, p := range m.Procs {
		if p.Clock() > t {
			t = p.Clock()
		}
	}
	return t
}
