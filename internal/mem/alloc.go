package mem

import "reflect"

// FrameAllocator hands out unique physical frame IDs from its own ID
// region and recycles retired frames. Physical capacity is not modeled
// (the paper's nodes have far more DRAM than any workload here
// touches); the allocator exists so that every live frame has a
// distinct physical tag for the cache model.
//
// Each SSMP owns one allocator (a disjoint ID region via base), so
// allocation is SSMP-local state: no cross-SSMP ordering can leak into
// frame IDs. The host memory of fresh frames comes from a Store the
// allocators of one machine share.
type FrameAllocator struct {
	base     uint64
	pageSize int
	free     Pool[*Frame] // retired frames, zeroed, IDs retained
	store    *Store
}

// RegionBits is the width of one frame-ID region: the allocator of
// region i hands out IDs from i<<RegionBits up, and no run allocates
// 2^RegionBits frames in one SSMP.
const RegionBits = 40

// Allocator returns an allocator whose IDs start at base, for one SSMP
// of a machine whose SSMPs' allocators all carve their fresh frames
// from s. Every allocator of one store must use the same page size, and
// their bases must lie far enough apart that regions never collide.
func (s *Store) Allocator(base uint64, pageSize int) *FrameAllocator {
	return &FrameAllocator{base: base, pageSize: pageSize, store: s}
}

// Alloc returns a zeroed frame with an ID unique among live frames:
// the most recently recycled frame if one is available, else a fresh
// frame with the next never-used ID (base, base+1, … in order: the
// pool's carves count the fresh frames).
func (a *FrameAllocator) Alloc() *Frame {
	if f, ok := a.free.Get(); ok {
		return f
	}
	return a.store.frame(a.base+uint64(a.free.Carved)-1, a.pageSize)
}

// Recycle retires f for reuse by a later Alloc. The frame is zeroed
// now so Alloc always returns a zeroed frame. Only recycle frames
// whose ID no longer tags any cache line (for the protocol: after a
// CleanPage); a reused ID must never produce a stale cache hit.
func (a *FrameAllocator) Recycle(f *Frame) {
	clear(f.Data)
	a.free.Put(f)
}

// Counts returns the counts of the allocator's pool of retired frames.
func (a *FrameAllocator) Counts() Counts { return a.free.Counts }

// Blocks carves runs of zeroed values of T — a page's bytes, a
// directory's lines, one record — from blocks that grow geometrically
// from one run up to a cap: each new block holds a third as many runs
// as have been carved so far. A store of a few runs so pays a few
// allocations and wastes at most a quarter of what it holds; one of
// thousands pays one allocation per cap's worth. (Doubling would waste
// half at worst and a third on average: more, on a machine of a few
// dozen pages, than a directory's 9-byte lines save over 16-byte
// ones.) Every run has no spare capacity, so no append through it
// reaches a neighbour. Runs are never freed back: their owners recycle
// them or live no longer than the store. The zero value is ready.
type Blocks[T any] struct {
	buf    []T // the current block's uncarved rest
	carved int // runs carved in all
	made   int // blocks allocated
}

// Made returns the number of blocks allocated.
func (b *Blocks[T]) Made() int64 { return int64(b.made) }

// Carve returns a fresh run of n values, starting a block of at most
// max(limit/n, 1) runs when the current one cannot hold it.
func (b *Blocks[T]) Carve(n, limit int) []T {
	if len(b.buf) < n {
		b.buf = make([]T, min(max(b.carved/3, 1), max(limit/n, 1))*n)
		b.made++
	}
	run := b.buf[:n:n]
	b.buf = b.buf[n:]
	b.carved++
	return run
}

// Store carves fresh frames, header and page bytes, for every
// FrameAllocator of one machine: a machine that maps a few pages pays
// a few allocations for all of them, one that maps thousands about one
// per maxBlock bytes of pages. Frames are never freed back to it:
// allocators recycle their own. The zero value is ready.
type Store struct {
	headers Slab[Frame]
	bytes   Blocks[byte]
}

// maxBlock caps a block of page bytes; a page larger than it comes one
// to a block.
const maxBlock = 64 << 10

// PageBlocks returns the number of blocks of page bytes allocated.
func (s *Store) PageBlocks() int64 { return s.bytes.Made() }

// frame returns a fresh zeroed frame of pageSize bytes tagged id.
func (s *Store) frame(id uint64, pageSize int) *Frame {
	f := s.headers.New()
	f.ID, f.Data = id, s.bytes.Carve(pageSize, maxBlock)
	return f
}

// Slab carves zeroed values of T one at a time from Blocks of at most
// maxSlab bytes, so a record costs a fraction of an allocation instead
// of one. It suits records that are recycled by their owner (frames,
// frame directories) or live as long as it does (page records). The
// zero value is ready.
type Slab[T any] struct{ blocks Blocks[T] }

// maxSlab caps a slab's block: 16 KB less the 8-byte header Go puts in
// front of an allocation of values holding pointers, so that a full
// block of any record fits the 16 KB size class. (A block of 64
// 256-byte Server records, 16 KB and the header, took 18 KB.)
const maxSlab = 16<<10 - 8

// New returns a pointer to a fresh zero T.
func (s *Slab[T]) New() *T {
	return &s.blocks.Carve(1, maxSlab/int(reflect.TypeFor[T]().Size()))[0]
}

// Pool is a LIFO free list of recycled values of T that counts what it
// does. LIFO is part of the machine for frames, whose reused IDs tag
// cache lines. Owners carve fresh values and wipe the ones they put
// back; the pool does neither. The zero value is ready.
type Pool[T any] struct {
	free []T
	Counts
}

// Counts is what a Pool has done: values its owner carved because it
// was empty, and values it handed back. Host work, never simulated.
type Counts struct{ Carved, Reused int64 }

// Get returns the value put most recently and true, or false, counted
// as a carve, when the caller must carve a fresh one.
func (p *Pool[T]) Get() (v T, ok bool) {
	if n := len(p.free) - 1; n >= 0 {
		v, p.free = p.free[n], p.free[:n]
		p.Reused++
		return v, true
	}
	p.Carved++
	return v, false
}

// Put returns v for a later Get.
func (p *Pool[T]) Put(v T) { p.free = append(p.free, v) }

// Add returns the sum of two pools' counts.
func (c Counts) Add(d Counts) Counts { return Counts{c.Carved + d.Carved, c.Reused + d.Reused} }
