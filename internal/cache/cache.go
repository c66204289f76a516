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
//
// Host memory follows use: a processor's cache words live in 16-slot
// chunks carved, on the first fill of one of their slots, from one
// Store per machine (Domain), and the hit test a caller's fast path
// inlines is Domain.Hit. A frame's directory costs w/8 + 1 bytes a line
// — a w-bit sharer set, w the SSMP's processor count rounded up to a
// power of two and capped at 64, and an owner byte, in two arrays —
// carved from the same Store (Domain.NewDir).
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

// Dir is the directory for one frame mapped in one SSMP: for each of
// the frame's lines, the processors holding a clean copy and the one
// holding it Modified. The two are separate arrays. The sharer sets are
// packed: each is a field of w bits, w the width of the domain the
// directory was carved for (Domain), 64/w of them to a word, so a line
// costs w/8 + 1 bytes — 1.5 at C = 4, 5 at C = 32, 9 from C = 33 up.
// Both hold within-SSMP processor numbers as one struct per line did: a
// processor's sharer bit is 1<<local, which no processor past 63 has,
// and the owner byte is int8(local), which wraps past 127. SSMPs wider
// than 64 processors keep those semantics, which the committed scale
// sweep's C > 64 points were measured with.
type Dir struct {
	// HomeNode is the within-SSMP index of the node whose memory holds
	// the frame (first-touch placement); it determines local vs remote
	// miss costs.
	HomeNode int
	sharers  []uint64 // packed w-bit sets of processors with clean copies (Domain.sharersOf)
	owner    []int8   // per line: processor with the Modified copy, or -1
}

// NewDir returns an empty directory for a page of pageSize bytes at
// homeNode, with lineSize-byte lines, allocated on its own. Its sharer
// sets are 64 bits wide, one to a word: the widest layout, valid on a
// domain of any width. Domain.NewDir carves one of the domain's own
// width.
func NewDir(homeNode, pageSize, lineSize int) *Dir {
	n := pageSize / lineSize
	d := &Dir{sharers: make([]uint64, n), owner: make([]int8, n)}
	d.Reset(homeNode)
	return d
}

// Reset returns d to the state NewDir builds — no line cached anywhere —
// for a page at homeNode, so a retired directory can serve a new copy
// of the same page size.
func (d *Dir) Reset(homeNode int) {
	d.HomeNode = homeNode
	clear(d.sharers)
	for i := range d.owner {
		d.owner[i] = -1
	}
}

// chunkBits is log2 of the slots in one chunk: the unit in which a
// processor's cache takes host memory (Domain).
const (
	chunkBits  = 4
	chunkSlots = 1 << chunkBits
)

// chunk is chunkSlots consecutive slots of one processor's cache: a
// (lineAddr+1)<<2 | state word per slot, 0 for an empty slot.
type chunk [chunkSlots]uint64

// Store carves chunks and frame directories for every coherence
// domain of one machine. Chunks come in blocks that double from one
// chunk up to a whole cache's worth: a machine whose processors fill
// few chunks pays a few allocations for all their caches, one whose
// processors fill whole caches about one per processor. A directory's
// sharer words and owner bytes come from two mem.Blocks carved in step,
// up to maxDirBlock values a block, and its header from a slab. Either
// kind wastes at most the unused rest of its last block. Nothing is
// freed back to it: chunks live as long as their domains, and the
// protocol recycles directories itself. The zero value is ready.
type Store struct {
	none   chunk // every slot empty: the table entry of a chunk never filled
	buf    []chunk
	used   int
	blocks int64 // chunk blocks allocated

	dirs     mem.Slab[Dir]
	sharers  mem.Blocks[uint64]
	owners   mem.Blocks[int8]
	dirWords int64 // sharer words carved
}

// maxDirBlock caps a block of sharer words or of owner bytes, in
// values: 32 KB of words, 4 KB of bytes — 64 directories of a 1 KB page
// of 16-byte lines at the widest sets, 64 × 64/w sharer arrays at w
// bits. An array larger than it comes one to a block.
const maxDirBlock = 4096

// table returns a chunk table of n entries, each the empty chunk.
func (s *Store) table(n int) []*chunk {
	t := make([]*chunk, n)
	for i := range t {
		t[i] = &s.none
	}
	return t
}

// carve returns a fresh zero chunk, growing the store by a block of at
// most limit chunks when the current one is used up.
func (s *Store) carve(limit int) *chunk {
	if s.used == len(s.buf) {
		s.buf = make([]chunk, min(max(2*len(s.buf), 1), limit))
		s.used = 0
		s.blocks++
	}
	c := &s.buf[s.used]
	s.used++
	return c
}

// ChunkBlocks returns the number of blocks of chunks allocated.
func (s *Store) ChunkBlocks() int64 { return s.blocks }

// DirWords returns the number of sharer words the store's directories
// were carved with.
func (s *Store) DirWords() int64 { return s.dirWords }

// dir returns an empty directory of n lines, their sharer sets packed
// in words words, at homeNode.
func (s *Store) dir(homeNode, n, words int) *Dir {
	d := s.dirs.New()
	d.sharers, d.owner = s.sharers.Carve(words, maxDirBlock), s.owners.Carve(n, maxDirBlock)
	s.dirWords += int64(words)
	d.Reset(homeNode)
	return d
}

// Domain is the hardware coherence domain of one SSMP.
//
// Its host layout is the simulator's inner loop. Each processor's cache
// is 2^chunkShift chunks of chunkSlots words, found through one
// domain-wide table indexed by local<<chunkShift | slot>>chunkBits: a
// lookup reads the table entry and then the word, as many levels as a
// per-processor array would. Nothing of it is allocated by NewDomain:
// the table comes with the domain's first Register, and a chunk is
// carved from the machine's Store when one of its slots is first
// filled.
// Until then its entry is the store's empty chunk, so looking a line
// up, dropping it or cleaning a page never allocates, and a
// processor's host memory follows the lines it touches. Most touch
// few: at the default sizes and P = 32, from C = 1 to C = 32, a TSP
// processor fills 3 % of its chunks, a Water one 4-7 %, a Jacobi one
// 19 %, a Barnes-Hut one 32-47 % and a syncbench one under 1 %; only
// MatMul fills whole caches (at C ≤ 16). Every slot, chunk, line and
// frame number, and a line's sharer set within its frame's directory
// (sharersOf), comes from masks and shifts fixed by NewDomain, which is
// why Params.Validate wants powers of two. An evicted line finds its
// frame's directory in reg, indexed by the frame's number within the
// domain's own frame-ID region (mem.RegionBits wide, starting at base);
// only frames from another region — home frames mapped with the
// software layer disabled at C < P — are looked up in a map.
type Domain struct {
	costs      Costs
	hwPointers int
	lineShift  uint   // log2 bytes per line
	frameShift uint   // log2 lines per page: line address >> frameShift = frame ID
	lineMask   uint64 // lines per page - 1
	setBits    uint   // log2 w, the bits of a line's sharer set: nprocs rounded up to a power of two, at most 64
	setShift   uint   // log2 sharer sets per directory word: 6 - setBits
	setMask    uint64 // w ones: a sharer set's field, at bit 0
	slotMask   uint64 // lines per cache - 1
	chunkShift uint   // log2 chunks per cache (0 for a cache of one chunk or less)
	nprocs     int
	chunks     []*chunk // nil until the domain's first Register
	store      *Store
	base       uint64          // first frame ID of the domain's region
	reg        []*Dir          // own-region frame ID - base -> directory
	foreign    map[uint64]*Dir // other regions' frame ID -> directory; nil until needed
	Counters   Counters
}

// NewDomain builds a coherence domain for nprocs processors and pages of
// pageSize bytes whose frames come from the ID region starting at 0,
// with a Store of its own. It panics on dimensions Params.Validate
// rejects.
func NewDomain(nprocs, pageSize int, params Params, costs Costs) *Domain {
	return NewDomainAt(0, nprocs, pageSize, params, costs)
}

// NewDomainAt is NewDomain for an SSMP whose frames come from the ID
// region starting at base (mem.Store.Allocator's base).
func NewDomainAt(base uint64, nprocs, pageSize int, params Params, costs Costs) *Domain {
	return new(Store).Domain(base, nprocs, pageSize, params, costs)
}

// Domain is NewDomainAt for one SSMP of a machine whose SSMPs' domains
// all carve their chunks from s.
func (s *Store) Domain(base uint64, nprocs, pageSize int, params Params, costs Costs) *Domain {
	if err := params.Validate(pageSize); err != nil {
		panic("cache: " + err.Error())
	}
	lineShift := uint(bits.TrailingZeros(uint(params.LineSize)))
	slotShift := uint(bits.TrailingZeros(uint(params.CacheBytes))) - lineShift
	chunkShift := uint(0)
	if slotShift > chunkBits {
		chunkShift = slotShift - chunkBits
	}
	setBits := min(uint(bits.Len(uint(max(nprocs-1, 0)))), 6)
	return &Domain{
		costs:      costs,
		hwPointers: params.HWPointers,
		lineShift:  lineShift,
		frameShift: uint(bits.TrailingZeros(uint(pageSize))) - lineShift,
		lineMask:   uint64(pageSize/params.LineSize) - 1,
		setBits:    setBits,
		setShift:   6 - setBits,
		setMask:    ^uint64(0) >> (64 - 1<<setBits),
		slotMask:   1<<slotShift - 1,
		chunkShift: chunkShift,
		nprocs:     nprocs,
		store:      s,
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

// NewDir returns an empty directory for one of the domain's frames at
// homeNode, its sharer sets packed at the domain's width, carved from
// the machine's Store.
func (d *Domain) NewDir(homeNode int) *Dir {
	return d.store.dir(homeNode, int(d.lineMask)+1, d.dirWords())
}

// dirWords is the number of words a frame's sharer sets take at the
// domain's width: lines·w/64, and at least one.
func (d *Domain) dirWords() int {
	return max(1, int(d.lineMask+1)>>d.setShift)
}

// Register attaches a frame's directory so evictions and cleaning can
// find it. Call when the SSMP maps a page onto the frame, and before
// any Access or Hit on the domain: the domain's first Register
// allocates its chunk table. It panics on a directory whose sharer
// words are too few for the domain's width.
func (d *Domain) Register(f *mem.Frame, dir *Dir) {
	if len(dir.sharers) < d.dirWords() {
		panic(fmt.Sprintf("cache: a directory of %d sharer words registered on a domain whose %d-bit sets need %d",
			len(dir.sharers), 1<<d.setBits, d.dirWords()))
	}
	if d.chunks == nil {
		d.chunks = d.store.table(d.nprocs << d.chunkShift)
	}
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
// updated to reflect the access; the first fill of one of a chunk's
// slots carves the chunk from the store.
func (d *Domain) Access(local int, f *mem.Frame, dir *Dir, off int, write bool) (sim.Time, MissKind) {
	la := d.lineAddr(f, off)
	slot := la & d.slotMask
	ci := d.chunkIndex(local, slot)
	c := d.chunks[ci]
	t := tag(la)
	w := c[slot&(chunkSlots-1)]
	if w&^3 == t {
		if !write || w == t|uint64(Modified) {
			d.Counters.ByKind[Hit]++
			return d.costs.Hit, Hit
		}
		// Write to a Shared line: upgrade, invalidating peers.
		li := la & d.lineMask
		cost := d.upgrade(local, la, d.sharersOf(dir, li), dir.HomeNode)
		c[slot&(chunkSlots-1)] = t | uint64(Modified)
		d.setSharers(dir, li, 0)
		dir.owner[li] = int8(local)
		d.Counters.ByKind[Upgrade]++
		return cost, Upgrade
	}

	// Miss: classify before mutating state.
	li := la & d.lineMask
	sharers, owner := d.sharersOf(dir, li), &dir.owner[li]
	kind := d.classify(local, sharers, *owner, dir.HomeNode)
	cost := d.missCost(kind)

	// Pull the dirty copy back / downgrade or invalidate as needed.
	if o := *owner; o >= 0 && int(o) != local {
		d.dropLine(int(o), la, !write) // read: downgrade to Shared
		if !write {
			sharers |= 1 << uint(o)
		}
		*owner = -1
	}
	if write {
		// Invalidate all other sharers.
		for s := sharers; s != 0; s &= s - 1 {
			p := trailingZeros(s)
			if p != local {
				d.dropLine(p, la, false)
			}
		}
		sharers = 0
		*owner = int8(local)
	} else {
		sharers |= 1 << uint(local)
	}
	// Stored before the eviction below, which may update a set that
	// shares the word.
	d.setSharers(dir, li, sharers)

	// Install in the local cache, evicting any conflicting line.
	if w != 0 {
		d.evict(local, w)
	}
	if c == &d.store.none {
		c = d.store.carve(1 << d.chunkShift)
		d.chunks[ci] = c
	}
	if write {
		c[slot&(chunkSlots-1)] = t | uint64(Modified)
	} else {
		c[slot&(chunkSlots-1)] = t | uint64(Shared)
	}
	d.Counters.ByKind[kind]++
	return cost, kind
}

// Hit is the part of Access a caller's own fast path can inline: it
// reports whether the access hits — the line is in processor local's
// cache with the rights the access needs — and counts it if so, as
// Access would. A hit changes no state and costs Costs.Hit; on false
// nothing has been counted or changed, and the caller calls Access.
// Like Access, it needs a frame registered on the domain first.
func (d *Domain) Hit(local int, f *mem.Frame, off int, write bool) bool {
	// Spelled out rather than through lineAddr, chunkIndex and tag, so
	// that the compiler's inlining budget covers it. x is the word's
	// state bits when it holds the line, and above 3 when it does not.
	la := f.ID<<d.frameShift + uint64(off)>>d.lineShift
	slot := la & d.slotMask
	c := d.chunks[uint64(local)<<d.chunkShift|slot>>chunkBits]
	if x := c[slot&(chunkSlots-1)] ^ (la+1)<<2; x != uint64(Modified) && (write || x > 3) {
		return false
	}
	d.Counters.ByKind[Hit]++
	return true
}

// sharersOf returns line li's sharer set in dir: the w-bit field at bit
// li<<setBits&63 of word li>>setShift. Both shift counts are below 64,
// and the &63 on each lets the compiler drop its test for larger ones.
func (d *Domain) sharersOf(dir *Dir, li uint64) uint64 {
	return dir.sharers[li>>(d.setShift&63)] >> (li << (d.setBits & 63) & 63) & d.setMask
}

// setSharers makes s line li's sharer set in dir. s holds processors
// below the domain's nprocs, so it fits in the set's w bits.
func (d *Domain) setSharers(dir *Dir, li, s uint64) {
	at, w := li<<(d.setBits&63)&63, &dir.sharers[li>>(d.setShift&63)]
	*w = *w&^(d.setMask<<at) | s<<at
}

// chunkIndex is the table index of the chunk holding slot of processor
// p's cache.
func (d *Domain) chunkIndex(p int, slot uint64) uint64 {
	return uint64(p)<<d.chunkShift | slot>>chunkBits
}

// classify picks the access class for a miss by processor local on a
// line with the given directory state and the frame's memory at
// homeNode.
func (d *Domain) classify(local int, sharers uint64, owner int8, homeNode int) MissKind {
	if owner >= 0 {
		switch {
		case int(owner) == homeNode || local == homeNode:
			return TwoParty
		default:
			return ThreeParty
		}
	}
	if popcount(sharers) >= d.hwPointers {
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
func (d *Domain) upgrade(local int, la uint64, sharers uint64, homeNode int) sim.Time {
	others := sharers &^ (1 << uint(local))
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
	slot := la & d.slotMask
	c := d.chunks[d.chunkIndex(p, slot)]
	if c[slot&(chunkSlots-1)]&^3 != tag(la) {
		return // never cached here, or already evicted
	}
	if downgrade {
		c[slot&(chunkSlots-1)] = tag(la) | uint64(Shared)
	} else {
		c[slot&(chunkSlots-1)] = 0
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
	li := la & d.lineMask
	if LineState(w&3) == Modified && int(dir.owner[li]) == p {
		dir.owner[li] = -1
	}
	d.setSharers(dir, li, d.sharersOf(dir, li)&^(1<<uint(p)))
}

// CleanPage invalidates every line of the frame from every cache in the
// domain (the paper's page-cleaning loop: prefetch, store, flush each
// line), returning the cycles the cleaning processor spends. After
// CleanPage the frame's data is globally coherent and safe to DMA.
func (d *Domain) CleanPage(f *mem.Frame, dir *Dir) sim.Time {
	first := d.lineAddr(f, 0)
	for li, o := range dir.owner {
		la := first + uint64(li)
		if o >= 0 {
			d.dropLine(int(o), la, false)
			dir.owner[li] = -1
		}
		for s := d.sharersOf(dir, uint64(li)); s != 0; s &= s - 1 {
			d.dropLine(trailingZeros(s), la, false)
		}
	}
	clear(dir.sharers)
	return sim.Time(d.lineMask+1) * d.costs.CleanPerLine
}

// cachedState reports processor p's state for offset off of frame f
// (test hook).
func (d *Domain) cachedState(p int, f *mem.Frame, off int) LineState {
	la := d.lineAddr(f, off)
	slot := la & d.slotMask
	c := d.chunks[d.chunkIndex(p, slot)]
	if c[slot&(chunkSlots-1)]&^3 != tag(la) {
		return Inv
	}
	return LineState(c[slot&(chunkSlots-1)] & 3)
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
