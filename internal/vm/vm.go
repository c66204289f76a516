// Package vm models the software virtual memory layer of MGS.
//
// Alewife has no hardware virtual memory; MGS performs address
// translation in software (paper §4.2.1), with a per-processor software
// TLB backed by per-SSMP page tables. This package provides the address
// arithmetic (Layout), the global virtual allocator with address-based
// home assignment (Space), the software TLB model with its three
// mapping states TLB_INV / TLB_READ / TLB_WRITE (as Priv None/Read/
// Write), and the page-indexed table all of them and the page tables
// store their per-page state in (PageMap). Page-table state beyond the
// TLB belongs to the MGS protocol itself and lives in internal/core.
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
// memory access, is two loads and allocation-free. The FIFO lists pages
// in fill order. An invalidation leaves the page's entry in place, and
// entries whose page no longer maps are skipped when they reach the
// front: a page invalidated and filled again is next evicted at its old
// position, which every simulated result depends on.
type TLB struct {
	cap  int
	live int // pages mapped
	m    PageMap[Priv]
	fifo []Page
	head int
	// Fills counts Insert calls; Evictions counts entries displaced.
	Fills, Evictions int64
}

// NewTLB returns a TLB holding up to capacity mappings.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		panic("vm: TLB capacity must be positive")
	}
	return &TLB{cap: capacity, fifo: make([]Page, 0, capacity)}
}

// Lookup returns the privilege of the mapping for p, or (None, false) on
// a TLB miss.
//
// Must not allocate: pinned by TestLookupZeroAllocs.
func (t *TLB) Lookup(p Page) (Priv, bool) {
	pr := t.m.Get(p)
	return pr, pr != None
}

// Insert fills the mapping for p with privilege pr (Read or Write),
// evicting the oldest entry if full. It returns the evicted page and
// true if an eviction happened. Inserting an already-present page just
// updates its privilege.
func (t *TLB) Insert(p Page, pr Priv) (Page, bool) {
	if pr == None {
		panic("vm: TLB fill with TLB_INV")
	}
	t.Fills++
	if t.m.Get(p) != None {
		t.m.Put(p, pr)
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
			if t.Invalidate(old) {
				evicted, did = old, true
				t.Evictions++
				break
			}
		}
	}
	t.m.Put(p, pr)
	t.live++
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
	if t.m.Get(p) == None {
		return false
	}
	t.m.Put(p, None)
	t.live--
	return true
}

// Len reports the number of live mappings.
func (t *TLB) Len() int { return t.live }
