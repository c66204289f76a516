// Package cache models the hardware shared-memory layer inside one SSMP:
// per-processor caches plus a per-line directory, in the style of the
// Alewife machine's single-writer write-invalidate protocol (including a
// LimitLESS-like software-directory overflow cost).
//
// Data does not live here. Inside one SSMP every processor reads and
// writes the SSMP's single physical frame for a page, which is coherent
// by construction in the simulator; this package tracks cache-line and
// directory *state* purely to charge the correct latencies (Table 3 of
// the paper: local 11, remote 38, 2-party 42, 3-party 63, software
// directory 425 cycles) and to implement page cleaning, which the MGS
// protocol needs before any DMA page transfer (paper §4.2.4).
package cache

import (
	"fmt"
	"math/bits"

	"mgs/internal/mem"
	"mgs/internal/sim"
)

// LineState is the state of one line in one processor's cache.
type LineState uint8

const (
	// Inv: not present.
	Inv LineState = iota
	// Shared: clean, possibly in several caches.
	Shared
	// Modified: dirty, exclusive to one cache.
	Modified
)

// MissKind classifies a memory access for cost accounting.
type MissKind uint8

const (
	// Hit: present in the local cache with sufficient rights.
	Hit MissKind = iota
	// LocalMiss: satisfied by the local node's memory.
	LocalMiss
	// RemoteCleanMiss: satisfied by a remote node's memory, line clean.
	RemoteCleanMiss
	// TwoParty: dirty line, two nodes involved.
	TwoParty
	// ThreeParty: dirty line, requester, home, and owner all distinct.
	ThreeParty
	// SoftwareDir: directory overflowed hardware pointers; handled by a
	// software trap at the home node (Alewife LimitLESS).
	SoftwareDir
	// Upgrade: write to a Shared line needing invalidation of peers.
	Upgrade

	nMissKinds
)

var missKindNames = [...]string{"hit", "local", "remote", "2party", "3party", "swdir", "upgrade"}

// String returns a short name for the miss kind.
func (k MissKind) String() string { return missKindNames[k] }

// Costs holds the latency, in cycles, of each access class, plus the
// per-line cost of the page-cleaning loop.
type Costs struct {
	Hit          sim.Time // cache hit
	Local        sim.Time // miss to local memory
	Remote       sim.Time // miss to remote clean memory
	TwoParty     sim.Time // dirty miss, 2 nodes
	ThreeParty   sim.Time // dirty miss, 3 nodes
	Software     sim.Time // miss under software directory control
	CleanPerLine sim.Time // prefetch+store+flush per line when cleaning
}

// Params sizes the hardware.
type Params struct {
	LineSize   int // bytes per cache line
	CacheBytes int // per-processor cache capacity
	HWPointers int // directory pointers before software overflow
}

// DefaultParams matches Alewife: 16-byte lines, 64KB caches, 5 hardware
// directory pointers.
func DefaultParams() Params {
	return Params{LineSize: 16, CacheBytes: 64 << 10, HWPointers: 5}
}

// Counters aggregates access classes for one coherence domain.
type Counters struct {
	ByKind [nMissKinds]int64
}

// Accesses returns the total number of accesses counted.
func (c *Counters) Accesses() int64 {
	var n int64
	for _, v := range c.ByKind {
		n += v
	}
	return n
}

// dirEntry is the directory state for one cache line of one frame.
type dirEntry struct {
	sharers uint64 // bitmask of within-SSMP processor indexes, clean copies
	owner   int8   // within-SSMP index holding Modified copy, or -1
}

// Dir is the directory for one frame mapped in one SSMP.
type Dir struct {
	// HomeNode is the within-SSMP index of the node whose memory holds
	// the frame (first-touch placement); it determines local vs remote
	// miss costs.
	HomeNode int
	entries  []dirEntry
}

// NewDir returns an empty directory for a page of pageSize bytes at
// homeNode, with lineSize-byte lines.
func NewDir(homeNode, pageSize, lineSize int) *Dir {
	d := new(Dir)
	d.Init(homeNode, pageSize, lineSize)
	return d
}

// Init makes d, in place, the directory NewDir returns — for callers
// that carve Dir headers from their own storage. Its entries are one
// fresh allocation.
func (d *Dir) Init(homeNode, pageSize, lineSize int) {
	d.entries = make([]dirEntry, pageSize/lineSize)
	d.Reset(homeNode)
}

// Reset returns d to the state NewDir builds — no line cached anywhere —
// for a page at homeNode, so a retired directory can serve a new copy
// of the same page size.
func (d *Dir) Reset(homeNode int) {
	d.HomeNode = homeNode
	for i := range d.entries {
		d.entries[i] = dirEntry{owner: -1}
	}
}

// Domain is the hardware coherence domain of one SSMP.
//
// Its host layout is the simulator's inner loop. Each processor's cache
// is one []uint64 of (lineAddr+1)<<2 | state words, 0 for an empty
// slot, allocated by the processor's first Access: zeroing 32 KB per
// processor up front is most of what building a machine costs, and a
// processor that is never recorded as a sharer or owner is never looked
// at. Every slot, line and frame number comes from masks and shifts
// fixed by NewDomain, which is why Params.Validate wants powers of two.
// An evicted line finds its frame's directory in reg, indexed by the
// frame's number within the domain's own frame-ID region
// (mem.RegionBits wide, starting at base); only frames from another
// region — home frames mapped with the software layer disabled at
// C < P — are looked up in a map.
type Domain struct {
	costs      Costs
	hwPointers int
	lineShift  uint   // log2 bytes per line
	frameShift uint   // log2 lines per page: line address >> frameShift = frame ID
	lineMask   uint64 // lines per page - 1
	slotMask   uint64 // lines per cache - 1
	caches     [][]uint64
	base       uint64          // first frame ID of the domain's region
	reg        []*Dir          // own-region frame ID - base -> directory
	foreign    map[uint64]*Dir // other regions' frame ID -> directory; nil until needed
	Counters   Counters
}

// NewDomain builds a coherence domain for nprocs processors and pages of
// pageSize bytes whose frames come from the ID region starting at 0. It
// panics on dimensions Params.Validate rejects.
func NewDomain(nprocs, pageSize int, params Params, costs Costs) *Domain {
	return NewDomainAt(0, nprocs, pageSize, params, costs)
}

// NewDomainAt is NewDomain for an SSMP whose frames come from the ID
// region starting at base (mem.NewFrameAllocatorAt's base).
func NewDomainAt(base uint64, nprocs, pageSize int, params Params, costs Costs) *Domain {
	if err := params.Validate(pageSize); err != nil {
		panic("cache: " + err.Error())
	}
	lineShift := uint(bits.TrailingZeros(uint(params.LineSize)))
	return &Domain{
		costs:      costs,
		hwPointers: params.HWPointers,
		lineShift:  lineShift,
		frameShift: uint(bits.TrailingZeros(uint(pageSize))) - lineShift,
		lineMask:   uint64(pageSize/params.LineSize) - 1,
		slotMask:   uint64(params.CacheBytes/params.LineSize) - 1,
		caches:     make([][]uint64, nprocs),
		base:       base,
	}
}

// Validate reports why caches of these dimensions cannot model pages of
// pageSize bytes. Slots, lines and frames are found by masking, so the
// line, cache and page sizes must be powers of two and a cache and a
// page must each hold a line; and a directory needs a hardware pointer
// to overflow from.
func (p Params) Validate(pageSize int) error {
	switch {
	case !pow2(p.LineSize):
		return fmt.Errorf("bad cache line size %d: want a power of two", p.LineSize)
	case !pow2(p.CacheBytes) || p.CacheBytes < p.LineSize:
		return fmt.Errorf("bad cache size %d: want a power of two of at least one %d-byte line", p.CacheBytes, p.LineSize)
	case p.HWPointers < 1:
		return fmt.Errorf("bad directory pointer count %d: want at least 1 hardware pointer", p.HWPointers)
	case !pow2(pageSize) || pageSize < p.LineSize:
		return fmt.Errorf("bad page size %d: want a power of two of at least one %d-byte cache line", pageSize, p.LineSize)
	}
	return nil
}

func pow2(x int) bool { return x > 0 && x&(x-1) == 0 }

// Register attaches a frame's directory so evictions and cleaning can
// find it. Call when the SSMP maps a page onto the frame.
func (d *Domain) Register(f *mem.Frame, dir *Dir) {
	if n := f.ID - d.base; n < 1<<mem.RegionBits {
		if n >= uint64(len(d.reg)) {
			d.reg = append(d.reg, make([]*Dir, n+1-uint64(len(d.reg)))...)
		}
		d.reg[n] = dir
		return
	}
	if d.foreign == nil {
		d.foreign = make(map[uint64]*Dir)
	}
	d.foreign[f.ID] = dir
}

// Unregister detaches a frame (page invalidated and frame freed).
func (d *Domain) Unregister(f *mem.Frame) {
	if n := f.ID - d.base; n < uint64(len(d.reg)) {
		d.reg[n] = nil
		return
	}
	delete(d.foreign, f.ID)
}

// dirOf returns the directory registered for frame id, or nil.
func (d *Domain) dirOf(id uint64) *Dir {
	if n := id - d.base; n < 1<<mem.RegionBits {
		if n < uint64(len(d.reg)) {
			return d.reg[n]
		}
		return nil
	}
	return d.foreign[id]
}

// lineAddr computes the global line address of offset off in frame f.
func (d *Domain) lineAddr(f *mem.Frame, off int) uint64 {
	return f.ID<<d.frameShift + uint64(off)>>d.lineShift
}

// tag is the cache word of line la with no state bits.
func tag(la uint64) uint64 { return (la + 1) << 2 }

// Access simulates processor `local` (within-SSMP index) touching byte
// offset off of frame f, whose directory is dir. It returns the latency
// to charge and the access class. State in the caches and directory is
// updated to reflect the access.
func (d *Domain) Access(local int, f *mem.Frame, dir *Dir, off int, write bool) (sim.Time, MissKind) {
	la := d.lineAddr(f, off)
	c := d.caches[local]
	if c == nil {
		c = make([]uint64, d.slotMask+1)
		d.caches[local] = c
	}
	slot := la & d.slotMask
	t := tag(la)
	w := c[slot]
	if w&^3 == t {
		if !write || w == t|uint64(Modified) {
			d.Counters.ByKind[Hit]++
			return d.costs.Hit, Hit
		}
		// Write to a Shared line: upgrade, invalidating peers.
		e := &dir.entries[la&d.lineMask]
		cost := d.upgrade(local, la, e, dir.HomeNode)
		c[slot] = t | uint64(Modified)
		e.sharers = 0
		e.owner = int8(local)
		d.Counters.ByKind[Upgrade]++
		return cost, Upgrade
	}

	// Miss: classify before mutating state.
	e := &dir.entries[la&d.lineMask]
	kind := d.classify(local, e, dir.HomeNode)
	cost := d.missCost(kind)

	// Pull the dirty copy back / downgrade or invalidate as needed.
	if e.owner >= 0 && int(e.owner) != local {
		d.dropLine(int(e.owner), la, !write) // read: downgrade to Shared
		if !write {
			e.sharers |= 1 << uint(e.owner)
		}
		e.owner = -1
	}
	if write {
		// Invalidate all other sharers.
		for s := e.sharers; s != 0; s &= s - 1 {
			p := trailingZeros(s)
			if p != local {
				d.dropLine(p, la, false)
			}
		}
		e.sharers = 0
		e.owner = int8(local)
	} else {
		e.sharers |= 1 << uint(local)
	}

	// Install in the local cache, evicting any conflicting line.
	if w != 0 {
		d.evict(local, w)
	}
	if write {
		c[slot] = t | uint64(Modified)
	} else {
		c[slot] = t | uint64(Shared)
	}
	d.Counters.ByKind[kind]++
	return cost, kind
}

// classify picks the access class for a miss by processor local on
// directory entry e with the frame's memory at homeNode.
func (d *Domain) classify(local int, e *dirEntry, homeNode int) MissKind {
	if e.owner >= 0 {
		switch {
		case int(e.owner) == homeNode || local == homeNode:
			return TwoParty
		default:
			return ThreeParty
		}
	}
	if popcount(e.sharers) >= d.hwPointers {
		return SoftwareDir
	}
	if local == homeNode {
		return LocalMiss
	}
	return RemoteCleanMiss
}

func (d *Domain) missCost(k MissKind) sim.Time {
	switch k {
	case LocalMiss:
		return d.costs.Local
	case RemoteCleanMiss:
		return d.costs.Remote
	case TwoParty:
		return d.costs.TwoParty
	case ThreeParty:
		return d.costs.ThreeParty
	case SoftwareDir:
		return d.costs.Software
	}
	return d.costs.Hit
}

// upgrade computes the cost of invalidating the other sharers of a line
// on a write hit to a Shared copy, and drops their copies.
func (d *Domain) upgrade(local int, la uint64, e *dirEntry, homeNode int) sim.Time {
	others := e.sharers &^ (1 << uint(local))
	if others == 0 {
		if local == homeNode {
			return d.costs.Local
		}
		return d.costs.Remote
	}
	third := false
	for s := others; s != 0; s &= s - 1 {
		p := trailingZeros(s)
		d.dropLine(p, la, false)
		if p != homeNode && p != local {
			third = true
		}
	}
	if popcount(others) >= d.hwPointers {
		return d.costs.Software
	}
	if third {
		return d.costs.ThreeParty
	}
	return d.costs.TwoParty
}

// dropLine removes (or downgrades) line la from processor p's cache.
func (d *Domain) dropLine(p int, la uint64, downgrade bool) {
	c := d.caches[p]
	slot := la & d.slotMask
	if c == nil || c[slot]&^3 != tag(la) {
		return // never cached here, or already evicted
	}
	if downgrade {
		c[slot] = tag(la) | uint64(Shared)
	} else {
		c[slot] = 0
	}
}

// evict updates the directory of the line whose cache word w processor
// p is about to overwrite, so directory state stays exact.
func (d *Domain) evict(p int, w uint64) {
	la := w>>2 - 1
	dir := d.dirOf(la >> d.frameShift)
	if dir == nil {
		return // frame already unregistered
	}
	e := &dir.entries[la&d.lineMask]
	if LineState(w&3) == Modified && int(e.owner) == p {
		e.owner = -1
	}
	e.sharers &^= 1 << uint(p)
}

// CleanPage invalidates every line of the frame from every cache in the
// domain (the paper's page-cleaning loop: prefetch, store, flush each
// line), returning the cycles the cleaning processor spends. After
// CleanPage the frame's data is globally coherent and safe to DMA.
func (d *Domain) CleanPage(f *mem.Frame, dir *Dir) sim.Time {
	first := d.lineAddr(f, 0)
	for li := range dir.entries {
		e := &dir.entries[li]
		la := first + uint64(li)
		if e.owner >= 0 {
			d.dropLine(int(e.owner), la, false)
			e.owner = -1
		}
		for s := e.sharers; s != 0; s &= s - 1 {
			d.dropLine(trailingZeros(s), la, false)
		}
		e.sharers = 0
	}
	return sim.Time(d.lineMask+1) * d.costs.CleanPerLine
}

// cachedState reports processor p's state for offset off of frame f
// (test hook).
func (d *Domain) cachedState(p int, f *mem.Frame, off int) LineState {
	la := d.lineAddr(f, off)
	c := d.caches[p]
	if c == nil || c[la&d.slotMask]&^3 != tag(la) {
		return Inv
	}
	return LineState(c[la&d.slotMask] & 3)
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
