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

// pcache is one processor's direct-mapped cache (tags + state only).
// Both arrays are nil until the processor's first Access: zeroing 36 KB
// per processor up front is most of what building a machine costs, and
// a processor that is never recorded as a sharer or owner is never
// looked at.
type pcache struct {
	tags  []uint64 // line address + 1; 0 means empty
	state []LineState
}

// Domain is the hardware coherence domain of one SSMP.
type Domain struct {
	params    Params
	costs     Costs
	pageSize  int
	lineShift uint
	nlines    int // lines per cache
	linesPage int // lines per page
	caches    []pcache
	frames    map[uint64]*Dir // frame ID -> directory, for exact eviction
	Counters  Counters
}

// NewDomain builds a coherence domain for nprocs processors and pages of
// pageSize bytes.
func NewDomain(nprocs, pageSize int, params Params, costs Costs) *Domain {
	lineShift := uint(0)
	for 1<<lineShift < params.LineSize {
		lineShift++
	}
	return &Domain{
		params:    params,
		costs:     costs,
		pageSize:  pageSize,
		lineShift: lineShift,
		nlines:    params.CacheBytes / params.LineSize,
		linesPage: pageSize / params.LineSize,
		caches:    make([]pcache, nprocs),
		frames:    make(map[uint64]*Dir),
	}
}

// Register attaches a frame's directory so evictions and cleaning can
// find it. Call when the SSMP maps a page onto the frame.
func (d *Domain) Register(f *mem.Frame, dir *Dir) { d.frames[f.ID] = dir }

// Unregister detaches a frame (page invalidated and frame freed).
func (d *Domain) Unregister(f *mem.Frame) { delete(d.frames, f.ID) }

// lineAddr computes the global line address of offset off in frame f.
func (d *Domain) lineAddr(f *mem.Frame, off int) uint64 {
	return (f.ID*uint64(d.pageSize) + uint64(off)) >> d.lineShift
}

// Access simulates processor `local` (within-SSMP index) touching byte
// offset off of frame f, whose directory is dir. It returns the latency
// to charge and the access class. State in the caches and directory is
// updated to reflect the access.
func (d *Domain) Access(local int, f *mem.Frame, dir *Dir, off int, write bool) (sim.Time, MissKind) {
	la := d.lineAddr(f, off)
	li := (off >> d.lineShift) % d.linesPage
	e := &dir.entries[li]
	c := &d.caches[local]
	if c.tags == nil {
		c.tags = make([]uint64, d.nlines)
		c.state = make([]LineState, d.nlines)
	}
	slot := int(la % uint64(d.nlines))
	hit := c.tags[slot] == la+1

	if hit {
		if !write || c.state[slot] == Modified {
			d.Counters.ByKind[Hit]++
			return d.costs.Hit, Hit
		}
		// Write to a Shared line: upgrade, invalidating peers.
		cost := d.upgrade(local, la, e, dir.HomeNode)
		c.state[slot] = Modified
		e.sharers = 0
		e.owner = int8(local)
		d.Counters.ByKind[Upgrade]++
		return cost, Upgrade
	}

	// Miss: classify before mutating state.
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
	d.evict(local, slot)
	c.tags[slot] = la + 1
	if write {
		c.state[slot] = Modified
	} else {
		c.state[slot] = Shared
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
	if popcount(e.sharers) >= d.params.HWPointers {
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
	if popcount(others) >= d.params.HWPointers {
		return d.costs.Software
	}
	if third {
		return d.costs.ThreeParty
	}
	return d.costs.TwoParty
}

// dropLine removes (or downgrades) line la from processor p's cache.
func (d *Domain) dropLine(p int, la uint64, downgrade bool) {
	c := &d.caches[p]
	slot := int(la % uint64(d.nlines))
	if c.tags == nil || c.tags[slot] != la+1 {
		return // never cached here, or already evicted
	}
	if downgrade {
		c.state[slot] = Shared
	} else {
		c.tags[slot] = 0
		c.state[slot] = Inv
	}
}

// evict clears whatever line occupies slot in processor p's cache,
// updating its directory so state stays exact.
func (d *Domain) evict(p, slot int) {
	c := &d.caches[p]
	old := c.tags[slot]
	if old == 0 {
		return
	}
	la := old - 1
	c.tags[slot] = 0
	st := c.state[slot]
	c.state[slot] = Inv
	frameID := la >> uint64(log2(d.linesPage))
	dir, ok := d.frames[frameID]
	if !ok {
		return // frame already unregistered
	}
	li := int(la % uint64(d.linesPage))
	e := &dir.entries[li]
	if st == Modified && int(e.owner) == p {
		e.owner = -1
	}
	e.sharers &^= 1 << uint(p)
}

// CleanPage invalidates every line of the frame from every cache in the
// domain (the paper's page-cleaning loop: prefetch, store, flush each
// line), returning the cycles the cleaning processor spends. After
// CleanPage the frame's data is globally coherent and safe to DMA.
func (d *Domain) CleanPage(f *mem.Frame, dir *Dir) sim.Time {
	for li := range dir.entries {
		e := &dir.entries[li]
		la := d.lineAddr(f, li<<d.lineShift)
		if e.owner >= 0 {
			d.dropLine(int(e.owner), la, false)
			e.owner = -1
		}
		for s := e.sharers; s != 0; s &= s - 1 {
			d.dropLine(trailingZeros(s), la, false)
		}
		e.sharers = 0
	}
	return sim.Time(d.linesPage) * d.costs.CleanPerLine
}

// cachedState reports processor p's state for offset off of frame f
// (test hook).
func (d *Domain) cachedState(p int, f *mem.Frame, off int) LineState {
	la := d.lineAddr(f, off)
	c := &d.caches[p]
	slot := int(la % uint64(d.nlines))
	if c.tags == nil || c.tags[slot] != la+1 {
		return Inv
	}
	return c.state[slot]
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

func log2(x int) uint {
	n := uint(0)
	for 1<<n < x {
		n++
	}
	return n
}
