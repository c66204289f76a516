package mem

// FrameAllocator hands out unique physical frame IDs from its own ID
// region and recycles retired frames. Physical capacity is not modeled
// (the paper's nodes have far more DRAM than any workload here
// touches); the allocator exists so that every live frame has a
// distinct physical tag for the cache model.
//
// Each SSMP owns one allocator (a disjoint ID region via base), so
// allocation is SSMP-local state: no cross-SSMP ordering can leak into
// frame IDs.
type FrameAllocator struct {
	base     uint64
	next     uint64
	pageSize int
	free     []*Frame // LIFO; retired frames, zeroed, IDs retained
	headers  Slab[Frame]
}

// RegionBits is the width of one frame-ID region: the allocator of
// region i hands out IDs from i<<RegionBits up, and no run allocates
// 2^RegionBits frames in one SSMP.
const RegionBits = 40

// NewFrameAllocatorAt returns an allocator whose IDs start at base.
// Callers carving one ID space into regions (one per SSMP) must space
// the bases far enough apart that regions never collide.
func NewFrameAllocatorAt(base uint64, pageSize int) *FrameAllocator {
	return &FrameAllocator{base: base, pageSize: pageSize}
}

// Alloc returns a zeroed frame with an ID unique among live frames:
// the most recently recycled frame if one is available, else a fresh
// frame with the next never-used ID (base, base+1, … in order).
func (a *FrameAllocator) Alloc() *Frame {
	if n := len(a.free); n > 0 {
		f := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return f
	}
	f := a.headers.New()
	f.ID, f.Data = a.base+a.next, make([]byte, a.pageSize)
	a.next++
	return f
}

// Recycle retires f for reuse by a later Alloc. The frame is zeroed
// now so Alloc always returns a zeroed frame. Only recycle frames
// whose ID no longer tags any cache line (for the protocol: after a
// CleanPage); a reused ID must never produce a stale cache hit.
func (a *FrameAllocator) Recycle(f *Frame) {
	for i := range f.Data {
		f.Data[i] = 0
	}
	a.free = append(a.free, f)
}

// Slab carves zeroed values of T from backing arrays that double from
// one value up to maxSlab, so a header costs a fraction of an
// allocation instead of one, and an owner that needs three headers
// pays for four, not maxSlab. Values are never freed back to it: it
// suits headers that are recycled by their owner (frames, frame
// directories) and live as long as it does. The zero value is ready.
type Slab[T any] struct {
	buf  []T
	used int
}

const maxSlab = 64

// New returns a pointer to a fresh zero T.
func (s *Slab[T]) New() *T {
	if s.used == len(s.buf) {
		s.buf = make([]T, min(max(2*len(s.buf), 1), maxSlab))
		s.used = 0
	}
	p := &s.buf[s.used]
	s.used++
	return p
}
