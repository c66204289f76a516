// Package vm models the software virtual memory layer of MGS.
//
// Alewife has no hardware virtual memory; MGS performs address
// translation in software (paper §4.2.1), with a per-processor software
// TLB backed by per-SSMP page tables. This package provides the address
// arithmetic (Layout), the global virtual allocator with address-based
// home assignment (Space), the software TLB model with its three
// mapping states TLB_INV / TLB_READ / TLB_WRITE (as Priv None/Read/
// Write) and a mark per page beside them, and the page-indexed table
// all of them and the page tables store their per-page state in
// (PageMap), whose chunks and index the tables of one machine carve
// from a shared PageStore. Page-table state beyond the TLB belongs to
// the MGS protocol itself and lives in internal/core; so does the use
// of the mark, the membership of the processor's delayed update queue.
package vm

import (
	"fmt"
	"math"
	"slices"
)

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
	// homes holds the explicit placements (distributed arrays) as
	// proc+1, so an unset page reads 0: "interleaved default".
	homes PageMap[int32]
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
	if h := s.homes.Get(p); h != 0 {
		return int(h - 1)
	}
	return int(uint64(p) % uint64(s.nprocs))
}

// SetHome places page p's home on the given processor. Alewife's
// compiler laid distributed arrays out so each block lives in its
// owner's memory; applications use this for the same effect. Panics if
// the page has already been placed elsewhere.
func (s *Space) SetHome(p Page, proc int) {
	if old := s.homes.Get(p); old != 0 && int(old-1) != proc {
		panic("vm: conflicting home placement")
	}
	s.homes.Put(p, int32(proc+1))
}

// TLB is one processor's software TLB: a small fully-associative
// structure with FIFO replacement. Replacement is deterministic.
//
// The mappings are a PageMap, so Lookup, which runs once per simulated
// memory access, is two loads and a mask, and allocation-free. The FIFO
// is a fixed ring of exactly the mapped pages, oldest fill at its head,
// as 32-bit page numbers (2^32 pages is 4 TB of the smallest page;
// Insert panics past it): a full Insert evicts the head, and Invalidate
// takes the page out of the ring, a scan of at most capacity entries on
// the protocol's invalidation path. A page invalidated and filled again
// is therefore next evicted at its latest fill, and neither Insert nor
// Invalidate allocates.
//
// The table's byte for a page also holds a mark its owner sets and
// clears (Mark, Unmark): core keeps the membership of the processor's
// delayed update queue there, one bit beside the privilege, exact for
// any page at any machine shape. A mark outlives the mapping's
// invalidation and eviction, and no mark changes what Lookup returns,
// Len, Fills, Evictions or which page a fill evicts.
type TLB struct {
	m    PageMap[Priv]
	ring []uint32 // the mapped pages, ring[head] the oldest fill
	head int
	live int // pages mapped
	// Fills counts Insert calls; Evictions counts entries displaced.
	Fills, Evictions int64
}

// marked is the mark's bit in a table byte; the privilege is the rest.
const marked Priv = 1 << 7

// NewTLB returns a TLB holding up to capacity mappings, with a table
// store of its own.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		panic("vm: TLB capacity must be positive")
	}
	t := MakeTLB(new(PageStore[Priv]), make([]uint32, capacity))
	return &t
}

// MakeTLB returns an empty TLB holding up to len(ring) mappings, its
// table carved from tables and its FIFO the ring. The TLBs of one
// machine share a store, and their rings are shares of one array.
func MakeTLB(tables *PageStore[Priv], ring []uint32) TLB {
	if len(ring) == 0 {
		panic("vm: TLB capacity must be positive")
	}
	return TLB{m: tables.Map(), ring: ring}
}

// Lookup returns the privilege of the mapping for p, or (None, false) on
// a TLB miss.
//
// Must not allocate: pinned by TestLookupZeroAllocs.
func (t *TLB) Lookup(p Page) (Priv, bool) {
	pr := t.m.Get(p) &^ marked
	return pr, pr != None
}

// slot returns the ring index of the k-th oldest mapping.
func (t *TLB) slot(k int) int {
	if i := t.head + k; i < len(t.ring) {
		return i
	}
	return t.head + k - len(t.ring)
}

// Insert fills the mapping for p with privilege pr (Read or Write),
// evicting the oldest mapping if full. It returns the evicted page and
// true if an eviction happened. Inserting an already-present page just
// updates its privilege.
func (t *TLB) Insert(p Page, pr Priv) (evicted Page, did bool) {
	if pr == None {
		panic("vm: TLB fill with TLB_INV")
	}
	if p > math.MaxUint32 {
		panic(fmt.Sprintf("vm: TLB fill of page %d, beyond the FIFO's 32-bit page numbers", p))
	}
	t.Fills++
	e := t.m.Get(p)
	if e&^marked == None {
		if t.live == len(t.ring) {
			evicted, did = Page(t.ring[t.head]), true
			t.m.Put(evicted, t.m.Get(evicted)&marked)
			t.head = t.slot(1)
			t.live--
			t.Evictions++
		}
		t.ring[t.slot(t.live)] = uint32(p)
		t.live++
	}
	t.m.Put(p, pr|e&marked)
	return evicted, did
}

// Invalidate removes the mapping for p, reporting whether it existed.
// p's mark stays.
func (t *TLB) Invalidate(p Page) bool {
	e := t.m.Get(p)
	if e&^marked == None {
		return false
	}
	t.m.Put(p, e&marked)
	t.remove(uint32(p))
	return true
}

// remove takes page q, which is in the ring, out of it: the later fills
// move up one. The live fills are r[head:end], then r[:tail] if they
// wrap, so the scan and the shift are at most two slice operations each.
func (t *TLB) remove(q uint32) {
	r := t.ring
	end := min(t.head+t.live, len(r))
	tail := t.head + t.live - end
	i := slices.Index(r[t.head:end], q)
	if i >= 0 {
		copy(r[t.head+i:end], r[t.head+i+1:end])
		if tail > 0 {
			r[end-1], i = r[0], 0
		}
	} else {
		i = slices.Index(r[:tail], q)
	}
	if tail > 0 {
		copy(r[i:tail], r[i+1:tail])
	}
	t.live--
}

// Len reports the number of live mappings.
func (t *TLB) Len() int { return t.live }

// Mark sets p's mark, reporting whether it was clear.
func (t *TLB) Mark(p Page) bool {
	e := t.m.Get(p)
	if e&marked != 0 {
		return false
	}
	t.m.Put(p, e|marked)
	return true
}

// Unmark clears p's mark.
func (t *TLB) Unmark(p Page) { t.m.Put(p, t.m.Get(p)&^marked) }

// Marked reports whether p's mark is set.
func (t *TLB) Marked(p Page) bool { return t.m.Get(p)&marked != 0 }
