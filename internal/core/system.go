// Package core implements the MGS multigrain shared-memory protocol —
// the paper's primary contribution (§3, Figure 4, Tables 1–2).
//
// Three software engines cooperate:
//
//   - The Local Client runs on a faulting processor. It fills software
//     TLBs from SSMP-local page tables (transition 1), drives upgrades
//     from read to write privilege (transition 2), and negotiates with
//     the Server for page replication when the SSMP has no copy
//     (transitions 5–7). Page-table state is protected by a per-page
//     shared-memory lock.
//
//   - The Remote Client runs on the processor owning an SSMP's copy of a
//     page. It services invalidations: page cleaning (global coherence
//     before DMA, §4.2.4), TLB shootdowns (PINV/PINV_ACK), diff
//     computation against the twin, and the single-writer optimization.
//
//   - The Server runs on the page's home processor. It tracks read and
//     write copies per SSMP (read_dir/write_dir), serves RREQ/WREQ,
//     and performs eager release: on REL it invalidates every copy,
//     collects ACK/DIFF/1WDATA replies, merges diffs into the home
//     frame, and answers queued requests and releases.
//
// Consistency is eager release consistency with multiple writers
// (Munin-style twin/diff). Two deliberate deviations from the published
// transition table, both required for correctness, are marked in the
// code: (1) the releasing processor drops the page-table lock before
// waiting for the RACK, since the release round invalidates the
// releaser's own SSMP and the invalidation handler takes that same
// lock; (2) after a single-writer release the retained write copy stays
// registered in write_dir, so a later release still invalidates it —
// the printed table clears write_dir, which would strand a stale copy.
//
// Extensions beyond the paper, each a Variant field and off by default:
// update-based release rounds (UpdateProtocol) and lazy release
// consistency (LazyRelease, lazy.go). A page's home is fixed for all
// time, as in the paper.
package core

import (
	"fmt"

	"mgs/internal/cache"
	"mgs/internal/mem"
	"mgs/internal/msg"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
	"mgs/internal/vm"
)

// PageState is the Local Client's page state within one SSMP.
type PageState uint8

const (
	// PInv: the SSMP holds no copy.
	PInv PageState = iota
	// PRead: the SSMP holds a read-only copy.
	PRead
	// PWrite: the SSMP holds a read-write copy (twinned).
	PWrite
	// PBusy: a replication request is outstanding.
	PBusy
)

var pageStateNames = [...]string{"INV", "READ", "WRITE", "BUSY"}

func (s PageState) String() string { return pageStateNames[s] }

// serverState is the Server's state for one page.
type serverState uint8

const (
	sRead  serverState = iota // only read copies outstanding
	sWrite                    // at least one write copy outstanding
	sRel                      // release in progress
)

// Config is a machine's shape and its protocol and cache cost tables.
// The shape alone decides whether the software layer runs: at C = P
// one SSMP holds every processor and the system makes the paper's
// "null MGS calls" — every page is mapped from its home frame on first
// touch at plain-SVM cost, and releases are no-ops.
type Config struct {
	P        int // total processors
	C        int // processors per SSMP (cluster size)
	PageSize int // bytes
	TLBSize  int // software TLB entries per processor

	Protocol Costs
	// Variant selects the protocol that runs over those costs; the
	// default is the paper's (DefaultVariant, Variants).
	Variant Variant
	Cache   cache.Costs
	CacheHW cache.Params
}

// clientPage is the Local/Remote Client state for one page in one SSMP.
type clientPage struct {
	page      vm.Page
	ssmp      int
	state     PageState
	frame     *mem.Frame
	dir       *cache.Dir
	twin      []byte
	tlbDir    uint64 // within-SSMP processors holding a TLB mapping
	ownerProc int    // global proc owning this SSMP's copy (first touch); -1 until placed
	lk        ptLock
	version   int64 // home version this copy reflects (lazy release only)
	gen       int64 // incarnation counter, bumped at teardown (lazy versioning)

	// capturedRound is the server round that last captured this copy's
	// modifications (finishInv), carried by this SSMP's next REL so the
	// home can tell a release whose data the running round already
	// collected from one it has not. Written and read only on the
	// copy's own SSMP; the value travels to the home in the REL
	// message, never by a cross-SSMP read.
	capturedRound int64

	// Lazy-release bookkeeping: diff-carrying RELs of this copy's data
	// still in flight, and releases waiting for them to reach the home
	// (the lazy counterpart of eager's RELWAIT).
	relInFlight int
	relWaiters  []*sim.Proc

	invCount int  // outstanding PINV_ACKs
	invOneW  bool // current invalidation is a 1WINV
}

// procPlace is where a processor sits: its SSMP and its index within
// that SSMP, tabled so the access path divides by no cluster size.
type procPlace struct{ ssmp, local int32 }

// invTarget is one SSMP to invalidate in a release round.
type invTarget struct {
	ssmp int
	inv  invKind
}

// invKind is which INV a target gets: plain, 1WINV, or a demotion (finishRel).
type invKind uint8

const (
	invPlain invKind = iota
	inv1W
	invDemote
)

// pendingReq is a replication request queued behind a release.
type pendingReq struct {
	proc  int
	write bool
	cp    *clientPage // the requester's page record, captured at REQ time
}

// String elides the page-record pointer: pendingReq values appear in
// trace output, which must be identical across runs of one seed.
func (q pendingReq) String() string {
	return fmt.Sprintf("{%d %v}", q.proc, q.write)
}

// remoteCopy is the Server's home-side record of one SSMP's copy: the
// client page record and owning processor (captured when the copy is
// served, so invalidations address the Remote Client without reading
// the remote SSMP's state), and the count of torn-down incarnations
// whose teardown replies have reached the home (the WNOTIFY staleness
// check — see onUpgrade). Records live in serverPage.rmt, a sparse
// sorted list holding only the SSMPs actually served (dirset.go).
type remoteCopy struct {
	ssmp  int32 // the SSMP this record describes
	cp    *clientPage
	owner int32 // global proc owning the SSMP's copy; -1 until first served
	gens  int64 // teardown replies received from this SSMP
}

// serverPage is the Server state for one page at its home.
type serverPage struct {
	page     vm.Page
	homeProc int
	frame    *mem.Frame // the physical home copy
	state    serverState
	readDir  dirSet // SSMPs with read copies (dirset.go)
	writeDir dirSet // SSMPs with write copies

	version     int64        // merges applied to the home frame (lazy release only)
	count       int          // outstanding invalidation replies
	refreshing  int          // outstanding refresh ACKs (update protocol)
	refreshDone bool         // this round's refresh phase already ran
	invQueue    []invTarget  // targets not yet invalidated (serial mode)
	keepWriter  int          // SSMP retaining its copy (single-writer opt), or -1
	sawDiff     bool         // foreign data merged during this round
	homeDirty   bool         // home-SSMP in-place writes since the last round
	round       int64        // release rounds opened; the current round's id while state == sRel
	rmt         []remoteCopy // sparse, sorted by ssmp; rmtGet/rmtEnsure
	pendReRel   []int        // releases that must run as a fresh round
	pendReq     []pendingReq
	pendRel     []int // processors awaiting RACK
}

// System is one DSSMP's multigrain shared memory.
type System struct {
	eng   *sim.Engine
	cfg   Config
	null  bool // P == C: null MGS calls (Config)
	net   *msg.Network
	space *vm.Space
	st    *stats.Collector
	procs []*sim.Proc

	tlbs  []*vm.TLB
	ssmps []*ssmpState
	place []procPlace // by processor: its SSMP and within-SSMP index

	// Every SSMP's per-page host state comes from these stores, so a
	// mapped page makes no allocation of its own.
	lines       cache.Store          // cache chunks and frame directories
	frames      mem.Store            // frame headers and bytes
	clientPages mem.Slab[clientPage] // ensurePage's records
	serverPages mem.Slab[serverPage] // server's records

	// Obs is the observability spine. Nil (or an observer with no
	// sinks) keeps the trace path structurally detached: emitPageArgs
	// checks Tracing() before any event is built.
	Obs *obs.Observer

	// Recycled records, each in a mem.Pool (frames and directories in
	// their SSMP's), so the steady state allocates nothing. Buffer
	// contents never reach the simulation: a page buffer is overwritten
	// whole before any simulated read (newTwin), and a DiffBuf's Compute
	// overwrites everything it exposes.
	msgs     mem.Slab[message]  // every message record
	msgFree  mem.Pool[*message] // delivered messages and run lock continuations, for newMsg
	pageBufs mem.Pool[[]byte]   // twins, DMA page images and refresh images (newTwin)
	diffBufs mem.Pool[*DiffBuf] // diff buffers (diffTwin)
	targets  []int              // roundTargets' scratch

	ctrs     [numCtr]*obs.Counter     // decision counters, resolved by count (counters.go)
	sentCtrs [numSent][4]*obs.Counter // message counters, resolved by book
	sent     [numSent]int64           // messages sent, by kind: the balance oracle's input

	acceptStaleWNotify bool // the model checker's seeded bug; set only by the method below
}

// MutStaleWNotify re-introduces the stale-WNOTIFY bug the staleness
// check in onUpgrade kills: a write notification delayed past the
// release round that captured its copy re-registers a phantom write_dir
// bit for an SSMP that holds nothing. It exists solely so the model
// checker's mutation regression (internal/check) can prove the explorer
// detects the bug, which is why it is a call on a constructed System
// and not part of any configuration.
func (s *System) MutStaleWNotify() { s.acceptStaleWNotify = true }

// emitPageArgs publishes one protocol event about a page, with the
// structured Args the model checker's refinement spec consumes
// (internal/check; zero where an event carries none). Detail formatting
// happens only when a sink is attached; emission charges no simulated
// cycles. Every call site tests s.Obs.Tracing() first: Go boxes an
// integer argument over 255 into the variadic slice at the call, before
// this method runs, so an unguarded call allocates with no sink.
func (s *System) emitPageArgs(t sim.Time, proc int, v vm.Page, name string, args [3]int64, format string, fa ...any) {
	if !s.Obs.Tracing() {
		return
	}
	var detail string
	if format != "" {
		detail = fmt.Sprintf(format, fa...)
	}
	s.Obs.Emit(obs.Event{
		T: t, Proc: proc, Cat: obs.Protocol, Name: name,
		Kind: obs.ObjPage, ID: int64(v), Args: args, Detail: detail,
	})
}

// emitEngine publishes one software-engine handshake event: a Local
// Client invocation (a span covering the whole fault, emitted at
// completion but timestamped at entry, so Chrome renders it as a
// duration bar on the faulting processor's track), or a Remote Client /
// Server engine dispatch (instants on the engine track, proc -1).
func (s *System) emitEngine(t sim.Time, proc int, v vm.Page, name string, dur sim.Time, format string, args ...any) {
	if !s.Obs.Tracing() {
		return
	}
	var detail string
	if format != "" {
		detail = fmt.Sprintf(format, args...)
	}
	s.Obs.Emit(obs.Event{
		T: t, Proc: proc, Cat: obs.Engine, Name: name,
		Kind: obs.ObjPage, ID: int64(v), Dur: dur, Detail: detail,
	})
}

// ssmpState is the per-SSMP software state. Everything here — client
// pages, the Server records of pages homed on this SSMP, the frame
// allocator — is touched only by events executing on this SSMP
// (server.go's SSMP locality).
type ssmpState struct {
	id      int
	domain  *cache.Domain
	pages   vm.PageMap[*clientPage]
	servers vm.PageMap[*serverPage] // pages homed on this SSMP
	frames  *mem.FrameAllocator     // this SSMP's physical frame region
	dirs    mem.Pool[*cache.Dir]    // directories of recycled frames, for newDir
	duqs    []*duq                  // one per local processor
}

// New wires a System over an engine, network, address space, stats
// collector, and the machine's processors (procs[i].ID must be i).
func New(eng *sim.Engine, net *msg.Network, space *vm.Space, st *stats.Collector, procs []*sim.Proc, cfg Config) *System {
	if cfg.P%cfg.C != 0 {
		panic(fmt.Sprintf("core: P=%d not divisible by C=%d", cfg.P, cfg.C))
	}
	s := &System{
		eng: eng, cfg: cfg, net: net, space: space, st: st, procs: procs,
		null:  cfg.P == cfg.C,
		tlbs:  make([]*vm.TLB, cfg.P),
		place: make([]procPlace, cfg.P),
	}
	nssmp := cfg.P / cfg.C
	for i := 0; i < cfg.P; i++ {
		s.tlbs[i] = vm.NewTLB(cfg.TLBSize)
		s.place[i] = procPlace{ssmp: int32(i / cfg.C), local: int32(i % cfg.C)}
	}
	for i := 0; i < nssmp; i++ {
		// Disjoint frame-ID regions (2^40 IDs each) keep frame tags
		// machine-wide unique with no cross-SSMP coordination; the
		// domain indexes its own region's directories by frame number.
		base := uint64(i) << mem.RegionBits
		ss := &ssmpState{
			id:     i,
			domain: s.lines.Domain(base, cfg.C, cfg.PageSize, cfg.CacheHW, cfg.Cache),
			frames: s.frames.Allocator(base, cfg.PageSize),
			duqs:   make([]*duq, cfg.C),
		}
		for j := range ss.duqs {
			ss.duqs[j] = newDUQ()
		}
		s.ssmps = append(s.ssmps, ss)
	}
	reg, tlbs := st.Registry(), s.tlbs
	reg.Gauge("tlb.fills", func() int64 {
		var n int64
		for _, t := range tlbs {
			n += t.Fills
		}
		return n
	})
	reg.Gauge("tlb.evictions", func() int64 {
		var n int64
		for _, t := range tlbs {
			n += t.Evictions
		}
		return n
	})
	reg.Gauge("engine.dispatched", eng.Dispatched)
	return s
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Space returns the virtual address space.
func (s *System) Space() *vm.Space { return s.space }

func (s *System) ssmpOf(proc int) int { return int(s.place[proc].ssmp) }
func (s *System) within(proc int) int { return int(s.place[proc].local) }

func bit(i int) uint64 { return 1 << uint(i) }

// spend advances p's clock by cycles, attributing them to cat. Handler
// preemption debt folded in by Advance is not re-attributed here: it
// was already charged (as MGS) when the handler ran.
func (s *System) spend(p *sim.Proc, cat stats.Category, cycles sim.Time) {
	p.Advance(cycles)
	s.st.Charge(p.ID, cat, cycles)
}

// handle returns the counter *h, first resolving it by name on the
// collector's registry (counters.go).
func (s *System) handle(h **obs.Counter, name string) *obs.Counter {
	if *h == nil {
		*h = s.st.Registry().Counter(name)
	}
	return *h
}

// parkCharge parks p and attributes the wait to cat.
func (s *System) parkCharge(p *sim.Proc, cat stats.Category) {
	c0 := p.Clock()
	p.Park()
	s.st.Charge(p.ID, cat, p.Clock()-c0)
}

// newTwin snapshots f into a page-size buffer from the pool: a twin, a
// DMA page image or a refresh image. The buffer is overwritten whole
// here, so reuse never leaks state.
func (s *System) newTwin(f *mem.Frame) []byte {
	b, ok := s.pageBufs.Get()
	if !ok {
		b = make([]byte, s.cfg.PageSize)
	}
	copy(b, f.Data)
	return b
}

// retwin refreshes cp's twin to the current frame contents, reusing the
// existing buffer when one is present.
func (s *System) retwin(cp *clientPage) {
	if cp.twin == nil {
		cp.twin = s.newTwin(cp.frame)
		return
	}
	copy(cp.twin, cp.frame.Data)
}

// recycleTwin returns cp's twin buffer (if any) to the pool. Diffs
// never alias twin storage, so a recycled buffer has no live readers.
func (s *System) recycleTwin(cp *clientPage) {
	if cp.twin != nil {
		s.pageBufs.Put(cp.twin)
		cp.twin = nil
	}
}

// diffTwin computes cp's changes since its twin into a diff buffer from
// the pool; put the buffer back once the diff has been applied (or
// discarded). A fresh buffer's range headers are pre-sized so its first
// Compute does not pay the append growth-by-doubling walk; the payload
// slab still grows to the first diff's high-water mark on demand.
//
// Must not allocate once warm: pinned by TestDiffPoolRoundTripZeroAllocs.
func (s *System) diffTwin(cp *clientPage) (*DiffBuf, Diff) {
	b, ok := s.diffBufs.Get()
	if !ok {
		b = &DiffBuf{ranges: make([]DiffRange, 0, 32)}
	}
	return b, b.Compute(cp.twin, cp.frame.Data)
}

// Pools returns the counts of the System's pools: message records, page
// buffers, diff buffers, and every SSMP's frames and directories summed.
func (s *System) Pools() (msgs, pageBufs, diffBufs, frames, dirs mem.Counts) {
	for _, ss := range s.ssmps {
		frames, dirs = frames.Add(ss.frames.Counts()), dirs.Add(ss.dirs.Counts)
	}
	return s.msgFree.Counts, s.pageBufs.Counts, s.diffBufs.Counts, frames, dirs
}

// Blocks returns the blocks the machine's stores allocated: of page
// bytes, and of cache chunks.
func (s *System) Blocks() (pages, chunks int64) {
	return s.frames.PageBlocks(), s.lines.ChunkBlocks()
}

// DirWords returns the sharer words the machine's frame directories
// were carved with.
func (s *System) DirWords() int64 { return s.lines.DirWords() }

// ensurePage returns (creating if needed) ss's record for page v.
func (s *System) ensurePage(ss *ssmpState, v vm.Page) *clientPage {
	cp := ss.pages.Get(v)
	if cp == nil {
		cp = s.clientPages.New()
		*cp = clientPage{page: v, ssmp: ss.id, state: PInv, ownerProc: -1}
		ss.pages.Put(v, cp)
	}
	return cp
}

// server returns (creating if needed) the Server record for page v,
// which lives on the home processor's SSMP. The home frame is created
// zeroed. Call it only from events executing on the home SSMP (or
// host-side, outside the run).
func (s *System) server(v vm.Page) *serverPage {
	ss := s.ssmps[s.ssmpOf(s.space.HomeProc(v))]
	sp := ss.servers.Get(v)
	if sp == nil {
		// The per-SSMP copy records (rmt) start empty and grow only as
		// SSMPs are actually served — home state is O(sharers), not
		// O(SSMPs) (dirset.go).
		sp = s.serverPages.New()
		*sp = serverPage{
			page: v, homeProc: s.space.HomeProc(v),
			frame: ss.frames.Alloc(), state: sRead, keepWriter: -1,
		}
		ss.servers.Put(v, sp)
	}
	return sp
}

// serverIfExists returns the Server record for page v, or nil if the
// page has never been served. Same SSMP locality as server.
func (s *System) serverIfExists(v vm.Page) *serverPage {
	return s.ssmps[s.ssmpOf(s.space.HomeProc(v))].servers.Get(v)
}

// HomeFrameID returns the physical frame number of page v's home copy,
// or false if the page has no home frame yet. Host-side, no simulated
// cost, and it creates nothing: tests read a setup's first-touch order
// from it.
func (s *System) HomeFrameID(v vm.Page) (uint64, bool) {
	if sp := s.serverIfExists(v); sp != nil {
		return sp.frame.ID, true
	}
	return 0, false
}

// BackdoorFrame returns the home frame of the page containing va and
// va's offset in it, without simulated cost, creating the frame if the
// page has none yet. It is the setup/verification hook: apps initialize
// their data sets and check results through harness.Machine's
// FillWords and VisitWords, which resolve each page here once. The home
// copy is current after any release point.
func (s *System) BackdoorFrame(va vm.Addr) (*mem.Frame, int) {
	return s.server(s.space.PageOf(va)).frame, s.space.Offset(va)
}

// SnapshotMemory returns the contents of the allocated shared address
// space as held by the home frames, page by page in address order, with
// untouched pages reading as zeros. After every processor has passed its
// final release point the home frames are the authoritative image, so
// two runs of one program must snapshot identically no matter what a
// fault plan did to the wire — the invariant mgs chaos enforces.
// No simulated cost.
func (s *System) SnapshotMemory() []byte {
	brk := s.space.Brk()
	if brk == 0 {
		return nil
	}
	ps := s.cfg.PageSize
	last := s.space.PageOf(brk - 1)
	out := make([]byte, (int(last)+1)*ps)
	for v := vm.Page(0); v <= last; v++ {
		if sp := s.serverIfExists(v); sp != nil {
			copy(out[int(v)*ps:(int(v)+1)*ps], sp.frame.Data)
		}
	}
	return out
}

// Access performs one simulated shared-memory access by processor p to
// virtual address va. It charges software translation, faults and runs
// the MGS protocol as needed (possibly blocking p), charges the
// hardware coherence cost, and returns the frame and byte offset the
// caller should read or write. pointer selects the more expensive
// pointer-dereference translation sequence.
//
// Fast-path invariant: an access that hits in the TLB and the cache
// performs no heap allocation, no division and no call but the one
// spend that charges its translation and hit cycles. The hit is decided
// here from three reads: the TLB entry, the SSMP's page record
// (vm.PageMap, two loads each) and one probe of the cache word
// (cache.Domain.Hit, inlined; a TLB hit means the page is mapped here,
// so its frame is registered on the domain, as Hit requires). A cache
// miss or upgrade goes out of line to Domain.Access. A TLB miss goes
// straight to the Local Client (fault) without translating again, and
// the loop then retries the TLB.
func (s *System) Access(p *sim.Proc, va vm.Addr, write, pointer bool) (*mem.Frame, int) {
	page := s.space.PageOf(va)
	off := s.space.Offset(va)
	tc := s.cfg.Protocol.TransArray
	if pointer {
		tc = s.cfg.Protocol.TransPtr
	}
	pl := s.place[p.ID]
	ss := s.ssmps[pl.ssmp]
	tlb := s.tlbs[p.ID]
	for {
		if priv, ok := tlb.Lookup(page); ok && (priv == vm.Write || !write) {
			cp := ss.pages.Get(page)
			if ss.domain.Hit(int(pl.local), cp.frame, off, write) {
				s.spend(p, stats.User, tc+s.cfg.Cache.Hit)
				return cp.frame, off
			}
			cost, _ := ss.domain.Access(int(pl.local), cp.frame, cp.dir, off, write)
			s.spend(p, stats.User, tc+cost)
			return cp.frame, off
		}
		s.spend(p, stats.User, tc)
		s.fault(p, ss, page, write)
	}
}

// Probe reports the Local Client page state of page v in ssmp (tests and
// tools).
func (s *System) Probe(ssmp int, v vm.Page) PageState {
	cp := s.ssmps[ssmp].pages.Get(v)
	if cp == nil {
		return PInv
	}
	return cp.state
}

// TLB returns processor p's TLB (tests and tools).
func (s *System) TLB(p int) *vm.TLB { return s.tlbs[p] }

// CacheCounters aggregates the hardware access-class counters across
// all SSMP coherence domains.
func (s *System) CacheCounters() cache.Counters {
	var out cache.Counters
	for _, ss := range s.ssmps {
		for k, v := range ss.domain.Counters.ByKind {
			out.ByKind[k] += v
		}
	}
	return out
}

// DUQLen reports the delayed-update-queue length of processor p.
func (s *System) DUQLen(p int) int {
	return s.ssmps[s.ssmpOf(p)].duqs[s.within(p)].len()
}
