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
}

// NewFrameAllocatorAt returns an allocator whose IDs start at base.
// Callers carving one ID space into regions (one per SSMP) must space
// the bases far enough apart that regions never collide.
func NewFrameAllocatorAt(base uint64, pageSize int) *FrameAllocator {
	return &FrameAllocator{base: base, pageSize: pageSize}
}

// Alloc returns a zeroed frame with an ID unique among live frames:
// the most recently recycled frame if one is available, else a fresh
// frame with a never-used ID.
func (a *FrameAllocator) Alloc() *Frame {
	if n := len(a.free); n > 0 {
		f := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return f
	}
	f := NewFrame(a.base+a.next, a.pageSize)
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
