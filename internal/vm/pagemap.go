package vm

import (
	"reflect"

	"mgs/internal/mem"
)

// PageMap is a page-number-indexed table of per-page values: the one
// store behind the software TLB, the home map and core's per-SSMP page
// tables. Pages are small dense integers (the space is a bump
// allocator), so a direct index beats hashing on the access path, and
// iteration is naturally in page order (no collect-then-sort, no
// map-range determinism hazard).
//
// The zero T means absent: Get of an unset page returns it, and Put of
// it deletes. The table is two-level, a top-level index of pointers to
// fixed-size chunks of pageChunk values, a chunk carved on the first
// non-zero Put into it. Every SSMP keeps tables indexed by the
// machine's global page numbers, so a flat array would cost O(SSMPs ×
// pages) while an SSMP touches only its own slice of the pages.
// Chunked, the storage follows the pages touched and the index is
// 1/pageChunk of the flat array. A chunk, once made, stays.
//
// Chunks and indexes come from the map's PageStore, which the maps of
// one machine share (PageStore.Map), so a map pays no allocation of its
// own. A zero PageMap makes its own store on its first non-zero Put.
type PageMap[T comparable] struct {
	chunks []*[pageChunk]T
	store  *PageStore[T]
}

const (
	pageShift = 6
	pageChunk = 1 << pageShift
	pageMask  = pageChunk - 1
)

// PageStore carves the chunks and indexes of the PageMaps made from it:
// chunks one to a run, an index as a run of chunk pointers, each kind
// from mem.Blocks of at most maxTableBlock bytes. A map that outgrows
// its index leaves the old run behind in its block; the index grows to
// the chunk a Put reaches and then by doubling, so that happens a few
// times per map. Nothing is freed back: maps live as long as their
// store. The zero value is ready.
type PageStore[T comparable] struct {
	chunks mem.Blocks[[pageChunk]T]
	index  mem.Blocks[*[pageChunk]T]
}

// maxTableBlock caps a block of chunks or of index entries: 16 KB less
// the 8-byte header Go puts in front of a pointerful allocation, so a
// full block fits the 16 KB size class.
const maxTableBlock = 16<<10 - 8

// Map returns an empty PageMap whose chunks and index come from s.
func (s *PageStore[T]) Map() PageMap[T] { return PageMap[T]{store: s} }

// Blocks returns the blocks the store allocated: of chunks, and of
// index entries.
func (s *PageStore[T]) Blocks() (chunks, index int64) {
	return s.chunks.Made(), s.index.Made()
}

// Get returns the value stored for page p, or the zero T.
//
// Must not allocate: pinned by TestPageMap.
func (m *PageMap[T]) Get(p Page) T {
	if c := p >> pageShift; c < Page(len(m.chunks)) {
		if ch := m.chunks[c]; ch != nil {
			return ch[p&pageMask]
		}
	}
	var zero T
	return zero
}

// Put stores t for page p. Storing the zero T deletes p and never
// allocates.
func (m *PageMap[T]) Put(p Page, t T) {
	var zero T
	c := p >> pageShift
	if t == zero {
		if c < Page(len(m.chunks)) && m.chunks[c] != nil {
			m.chunks[c][p&pageMask] = zero
		}
		return
	}
	if c >= Page(len(m.chunks)) {
		if m.store == nil {
			m.store = new(PageStore[T])
		}
		grown := m.store.index.Carve(max(2*len(m.chunks), int(c)+1), maxTableBlock/8)
		copy(grown, m.chunks)
		m.chunks = grown
	}
	ch := m.chunks[c]
	if ch == nil {
		ch = &m.store.chunks.Carve(1, maxTableBlock/int(reflect.TypeFor[[pageChunk]T]().Size()))[0]
		m.chunks[c] = ch
	}
	ch[p&pageMask] = t
}

// Each calls f for every non-zero value in ascending page order.
func (m *PageMap[T]) Each(f func(Page, T)) {
	var zero T
	for c, ch := range m.chunks {
		if ch == nil {
			continue
		}
		for i, t := range ch {
			if t != zero {
				f(Page(c<<pageShift|i), t)
			}
		}
	}
}
