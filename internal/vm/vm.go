// Package vm models the software virtual memory layer of MGS.
//
// Alewife has no hardware virtual memory; MGS performs address
// translation in software (paper §4.2.1), with a per-processor software
// TLB backed by per-SSMP page tables. This package provides the address
// arithmetic (Layout), the global virtual allocator with address-based
// home assignment (Space), and the software TLB model with its three
// mapping states TLB_INV / TLB_READ / TLB_WRITE (as Priv None/Read/
// Write). Page-table state beyond the TLB belongs to the MGS protocol
// itself and lives in internal/core.
package vm

import "fmt"

// Addr is a virtual byte address.
type Addr uint64

// Page is a virtual page number.
type Page uint64

// Priv is the privilege of a mapping.
type Priv uint8

const (
	// None: TLB_INV, no mapping.
	None Priv = iota
	// Read: TLB_READ, read-only mapping.
	Read
	// Write: TLB_WRITE, read-write mapping.
	Write
)

// String returns the paper's name for the TLB state.
func (p Priv) String() string {
	switch p {
	case Read:
		return "TLB_READ"
	case Write:
		return "TLB_WRITE"
	}
	return "TLB_INV"
}

// Layout holds the page-size arithmetic for a machine.
type Layout struct {
	pageSize int
	shift    uint
}

// NewLayout returns a layout for pages of pageSize bytes, which must be
// a power of two.
func NewLayout(pageSize int) Layout {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("vm: page size %d is not a power of two", pageSize))
	}
	s := uint(0)
	for 1<<s < pageSize {
		s++
	}
	return Layout{pageSize: pageSize, shift: s}
}

// PageSize returns the page size in bytes.
func (l Layout) PageSize() int { return l.pageSize }

// PageOf returns the page containing address a.
func (l Layout) PageOf(a Addr) Page { return Page(a >> l.shift) }

// Offset returns a's byte offset within its page.
func (l Layout) Offset(a Addr) int { return int(a) & (l.pageSize - 1) }

// Base returns the first address of page p.
func (l Layout) Base(p Page) Addr { return Addr(uint64(p) << l.shift) }

// Space is the global virtual address space: a bump allocator plus the
// fixed address-based home map ("the location of the home is based on
// the virtual address and remains fixed for all time", §3.1).
type Space struct {
	Layout
	nprocs int
	next   Addr
	// homes holds the explicit placements (distributed arrays),
	// page-indexed with -1 for "interleaved default". Pages are small
	// dense integers from the bump allocator, so the slice beats a map
	// on HomeProc — which runs inside every fault and Server lookup.
	homes []int32
}

// NewSpace creates an address space for a machine of nprocs processors.
// Address 0 is kept unmapped so that a zero Addr can serve as nil.
func NewSpace(pageSize, nprocs int) *Space {
	l := NewLayout(pageSize)
	return &Space{Layout: l, nprocs: nprocs, next: Addr(pageSize)}
}

// Alloc reserves n bytes aligned to align (which must be a power of two,
// at least 1) and returns the base address. Objects are packed — two
// small objects can share a page, which is exactly how false sharing
// arises (e.g. TSP's 56-byte path elements).
func (s *Space) Alloc(n int, align int) Addr {
	if n <= 0 {
		panic("vm: Alloc of non-positive size")
	}
	if align <= 0 || align&(align-1) != 0 {
		panic("vm: bad alignment")
	}
	a := (s.next + Addr(align) - 1) &^ (Addr(align) - 1)
	s.next = a + Addr(n)
	return a
}

// AllocPages reserves n bytes starting on a fresh page boundary.
func (s *Space) AllocPages(n int) Addr {
	return s.Alloc(n, s.pageSize)
}

// Brk returns the current top of the allocated space.
func (s *Space) Brk() Addr { return s.next }

// HomeProc returns the global processor whose memory is home for page p:
// an explicit placement if one was made, else interleaved by page number.
func (s *Space) HomeProc(p Page) int {
	if int(p) < len(s.homes) {
		if h := s.homes[p]; h >= 0 {
			return int(h)
		}
	}
	return int(uint64(p) % uint64(s.nprocs))
}

// placementSlot grows the placement table to cover page p and returns
// its index.
func (s *Space) placementSlot(p Page) int {
	for int(p) >= len(s.homes) {
		size := 2 * len(s.homes)
		if size < int(p)+1 {
			size = int(p) + 1
		}
		grown := make([]int32, size)
		copy(grown, s.homes)
		for i := len(s.homes); i < size; i++ {
			grown[i] = -1
		}
		s.homes = grown
	}
	return int(p)
}

// SetHome places page p's home on the given processor. Alewife's
// compiler laid distributed arrays out so each block lives in its
// owner's memory; applications use this for the same effect. Panics if
// the page has already been placed elsewhere.
func (s *Space) SetHome(p Page, proc int) {
	i := s.placementSlot(p)
	if old := s.homes[i]; old >= 0 && int(old) != proc {
		panic("vm: conflicting home placement")
	}
	s.homes[i] = int32(proc)
}

// Rehome moves page p's home (dynamic migration — an extension beyond
// the paper, whose homes are "fixed for all time").
func (s *Space) Rehome(p Page, proc int) { s.homes[s.placementSlot(p)] = int32(proc) }

// tlbSlot is one open-addressing slot.
type tlbSlot struct {
	page  Page
	priv  Priv
	state uint8 // slotEmpty, slotFull, or slotDead
}

const (
	slotEmpty uint8 = iota
	slotFull
	slotDead // tombstone: invalidated, probe chains continue through it
)

// TLB is one processor's software TLB: a small fully-associative
// structure with FIFO replacement. Replacement is deterministic.
//
// The mapping table is a fixed-capacity open-addressed hash table
// (linear probing, Fibonacci hashing, tombstoned deletes) rather than a
// Go map: Lookup sits on the simulator's hottest path — it runs once
// per simulated memory access — and the array probe is both faster than
// the map and allocation-free. The table is sized to at least 4×
// capacity so probe chains stay short; tombstones are compacted in
// place when they accumulate.
type TLB struct {
	cap   int
	shift uint // 64 - log2(len(slots)), for Fibonacci hashing
	slots []tlbSlot
	spare []tlbSlot // compaction scratch, swapped with slots
	live  int       // slots in state slotFull
	dead  int       // tombstones
	fifo  []Page
	head  int
	gen   uint64 // bumped on every mapping change (micro-cache validation)
	// Fills counts Insert calls; Evictions counts entries displaced.
	Fills, Evictions int64
}

// NewTLB returns a TLB holding up to capacity mappings.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		panic("vm: TLB capacity must be positive")
	}
	size := 8
	for size < 4*capacity {
		size *= 2
	}
	shift := uint(64)
	for 1<<(64-shift) < size {
		shift--
	}
	return &TLB{cap: capacity, shift: shift, slots: make([]tlbSlot, size)}
}

// hash spreads page numbers over the table (Fibonacci hashing: the
// multiplier is 2^64 / φ, odd, so all 64 input bits reach the top bits
// the shift keeps).
func (t *TLB) hash(p Page) uint64 {
	return (uint64(p) * 0x9E3779B97F4A7C15) >> t.shift
}

// Gen returns the mapping generation: any Insert or Invalidate that
// changes the mapping set bumps it. Callers caching
// translation results revalidate against it.
func (t *TLB) Gen() uint64 { return t.gen }

// Lookup returns the privilege of the mapping for p, or (None, false) on
// a TLB miss.
//
// Must not allocate: pinned by TestLookupZeroAllocs.
func (t *TLB) Lookup(p Page) (Priv, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := t.hash(p); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.state == slotEmpty {
			return None, false
		}
		if s.state == slotFull && s.page == p {
			return s.priv, true
		}
	}
}

// find returns the slot index holding p, or -1.
func (t *TLB) find(p Page) int {
	mask := uint64(len(t.slots) - 1)
	for i := t.hash(p); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.state == slotEmpty {
			return -1
		}
		if s.state == slotFull && s.page == p {
			return int(i)
		}
	}
}

// place stores a new mapping, reusing the first tombstone on p's probe
// chain if one exists. The caller guarantees p is absent and live < cap.
func (t *TLB) place(p Page, pr Priv) {
	mask := uint64(len(t.slots) - 1)
	target := -1
	for i := t.hash(p); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.state == slotDead && target < 0 {
			target = int(i)
		}
		if s.state == slotEmpty {
			if target < 0 {
				target = int(i)
			}
			break
		}
	}
	s := &t.slots[target]
	if s.state == slotDead {
		t.dead--
	}
	*s = tlbSlot{page: p, priv: pr, state: slotFull}
	t.live++
	// Compact when tombstones choke the probe chains. Rebuilding from a
	// deterministic slot scan keeps runs reproducible.
	if t.live+t.dead > len(t.slots)*3/4 {
		t.compact()
	}
}

// compact rebuilds the table without tombstones, swapping into the
// spare buffer so steady-state compaction never allocates.
func (t *TLB) compact() {
	old := t.slots
	if t.spare == nil {
		t.spare = make([]tlbSlot, len(old))
	}
	t.slots = t.spare
	t.spare = old
	for i := range t.slots {
		t.slots[i] = tlbSlot{}
	}
	t.live, t.dead = 0, 0
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.state != slotFull {
			continue
		}
		i := t.hash(s.page)
		for t.slots[i].state == slotFull {
			i = (i + 1) & mask
		}
		t.slots[i] = s
		t.live++
	}
}

// Insert fills the mapping for p, evicting the oldest entry if full. It
// returns the evicted page and true if an eviction happened. Inserting
// an already-present page just updates its privilege.
func (t *TLB) Insert(p Page, pr Priv) (Page, bool) {
	t.Fills++
	t.gen++
	if i := t.find(p); i >= 0 {
		t.slots[i].priv = pr
		return 0, false
	}
	var evicted Page
	var did bool
	if t.live >= t.cap {
		// Pop FIFO entries until one still maps (others were
		// invalidated in place).
		for {
			old := t.fifo[t.head]
			t.head++
			if t.head == len(t.fifo) {
				t.fifo = t.fifo[:0]
				t.head = 0
			}
			if i := t.find(old); i >= 0 {
				t.slots[i].state = slotDead
				t.live--
				t.dead++
				evicted, did = old, true
				t.Evictions++
				break
			}
		}
	}
	t.place(p, pr)
	// Slide the FIFO down once the dead prefix dominates, so the queue's
	// backing array stays bounded by the live population.
	if t.head > 16 && t.head*2 >= len(t.fifo) {
		n := copy(t.fifo, t.fifo[t.head:])
		t.fifo = t.fifo[:n]
		t.head = 0
	}
	t.fifo = append(t.fifo, p)
	return evicted, did
}

// Invalidate removes the mapping for p, reporting whether it existed.
func (t *TLB) Invalidate(p Page) bool {
	i := t.find(p)
	if i < 0 {
		return false
	}
	t.slots[i].state = slotDead
	t.live--
	t.dead++
	t.gen++
	return true
}

// Len reports the number of live mappings.
func (t *TLB) Len() int { return t.live }
