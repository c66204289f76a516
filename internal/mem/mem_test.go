package mem

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestFrameWordAccess(t *testing.T) {
	f := NewFrame(0, 1024)
	f.Store64(0, 0xdeadbeefcafebabe)
	f.Store64(1016, 42)
	if got := f.Load64(0); got != 0xdeadbeefcafebabe {
		t.Errorf("Load64(0) = %#x", got)
	}
	if got := f.Load64(1016); got != 42 {
		t.Errorf("Load64(1016) = %d", got)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := NewFrame(0, 4096)
	fn := func(off uint16, v uint64) bool {
		o := int(off) % (4096 - 8)
		o &^= 7 // align
		f.Store64(o, v)
		return f.Load64(o) == v
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCopyFrom(t *testing.T) {
	src := NewFrame(0, 64)
	dst := NewFrame(1, 64)
	src.Store64(8, 99)
	dst.CopyFrom(src.Data)
	if dst.Load64(8) != 99 {
		t.Errorf("CopyFrom did not transfer data")
	}
}

func TestCopyFromSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	NewFrame(0, 64).CopyFrom(make([]byte, 32))
}

func TestAllocatorUniqueIDs(t *testing.T) {
	a := new(Store).Allocator(0, 256)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		f := a.Alloc()
		if seen[f.ID] {
			t.Fatalf("duplicate frame ID %d", f.ID)
		}
		seen[f.ID] = true
		if len(f.Data) != 256 {
			t.Fatalf("frame size %d, want 256", len(f.Data))
		}
	}
}

// TestFrameAccessZeroAllocs pins the zero-allocation contract of the word
// accessors and the DMA copy — the storage behind every simulated
// Load/Store — and that the copy is one: the frame does not alias src.
func TestFrameAccessZeroAllocs(t *testing.T) {
	f := NewFrame(1, 256)
	src := make([]byte, 256)
	allocs := testing.AllocsPerRun(100, func() {
		f.Store64(8, 0xdeadbeef)
		_ = f.Load64(8)
		f.CopyFrom(src)
	})
	if allocs != 0 {
		t.Errorf("frame access allocated %.1f times per op, want 0", allocs)
	}
	src[0] = 1
	if f.Data[0] != 0 {
		t.Errorf("frame aliases the CopyFrom source: Data[0] = %d", f.Data[0])
	}
}

// TestAllocatorIDSequence pins the exact frame IDs an interleaving of
// Alloc and Recycle yields: fresh IDs base+next in order, retired
// frames reused LIFO, every frame zeroed. Cache tags are frame IDs, so
// this sequence is a simulated output; the 18 fresh frames come from
// eleven blocks (six of one page, then 2, 2, 3, 4 and 5), whose
// boundaries must not show.
func TestAllocatorIDSequence(t *testing.T) {
	const base = 3 << 40
	a := new(Store).Allocator(base, 64)
	live := map[uint64]*Frame{}
	var got []uint64
	alloc := func(n int) {
		for range n {
			f := a.Alloc()
			if len(f.Data) != 64 {
				t.Fatalf("frame %d: %d bytes, want 64", f.ID-base, len(f.Data))
			}
			for i, b := range f.Data {
				if b != 0 {
					t.Fatalf("frame %d: Data[%d] = %d, want a zeroed frame", f.ID-base, i, b)
				}
			}
			f.Store64(8, f.ID) // dirty it; Recycle must zero it
			live[f.ID] = f
			got = append(got, f.ID-base)
		}
	}
	recycle := func(ids ...uint64) {
		for _, id := range ids {
			a.Recycle(live[base+id])
			delete(live, base+id)
		}
	}
	alloc(5)
	recycle(1, 3)
	alloc(3)
	alloc(10)
	recycle(15, 0, 7)
	alloc(5)
	want := []uint64{0, 1, 2, 3, 4, 3, 1, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 7, 0, 15, 16, 17}
	if !slices.Equal(got, want) {
		t.Fatalf("frame IDs (minus base)\n got %v\nwant %v", got, want)
	}
	if h, b := a.store.headers.blocks, a.store.bytes; h.carved != 18 || b.carved != 18 || len(h.buf) != 4 || len(b.buf) != 4*64 {
		t.Fatalf("%d fresh frames with %d left in their header block and %d pages in their byte block; want 18 with 4 and 4 (the first of a block of 5): the sequence no longer spans eleven blocks",
			b.carved, len(h.buf), len(b.buf)/64)
	}
}

// TestStoreBlocks pins how a Store carves page bytes: blocks grow by a
// third from one page up to maxBlock bytes, a page larger than
// maxBlock comes one to a block, and every page is zero, exactly one
// page long with no spare capacity, and disjoint from every other.
func TestStoreBlocks(t *testing.T) {
	for _, tc := range []struct {
		pageSize int
		want     []int // pages per block
	}{
		{1024, []int{1, 1, 1, 1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12, 16, 22, 29, 39, 52, 64, 64}},
		{16 << 10, []int{1, 1, 1, 1, 1, 1, 2, 2, 3, 4, 4, 4}},
		{128 << 10, []int{1, 1, 1}},
	} {
		var s Store
		a, b := s.Allocator(0, tc.pageSize), s.Allocator(1<<RegionBits, tc.pageSize)
		var blocks []int
		var live []*Frame
		for i := 0; len(blocks) < len(tc.want) || len(s.bytes.buf) > 0; i++ {
			fresh := len(s.bytes.buf) == 0
			f := []*FrameAllocator{a, b}[i%2].Alloc()
			if len(f.Data) != tc.pageSize || cap(f.Data) != tc.pageSize {
				t.Fatalf("page size %d: frame %#x has len %d, cap %d", tc.pageSize, f.ID, len(f.Data), cap(f.Data))
			}
			if fresh {
				blocks = append(blocks, 1+len(s.bytes.buf)/tc.pageSize)
			}
			for j, x := range f.Data {
				if x != 0 {
					t.Fatalf("page size %d: fresh frame %#x has Data[%d] = %d", tc.pageSize, f.ID, j, x)
				}
			}
			for j := range f.Data {
				f.Data[j] = byte(i + 1)
			}
			live = append(live, f)
		}
		for i, f := range live {
			if f.Data[0] != byte(i+1) || f.Data[tc.pageSize-1] != byte(i+1) {
				t.Fatalf("page size %d: frame %d was overwritten by another", tc.pageSize, i)
			}
		}
		if !slices.Equal(blocks, tc.want) {
			t.Fatalf("page size %d: blocks of %v pages, want %v", tc.pageSize, blocks, tc.want)
		}
	}
}

// TestSlabGrowth pins the slab's geometric growth and its cap: slabs
// of 256-byte values grow by a third from one value up to 63, the most
// that fit maxSlab, every later slab holds 63, and every value is
// fresh and zero.
func TestSlabGrowth(t *testing.T) {
	var s Slab[[32]int]
	var sizes []int
	seen := map[*[32]int]bool{}
	for range 208 + 2*63 {
		fresh := len(s.blocks.buf) == 0
		p := s.New()
		if *p != [32]int{} || seen[p] {
			t.Fatalf("New returned a used value %p = %v", p, *p)
		}
		seen[p] = true
		p[0] = 1
		if fresh {
			sizes = append(sizes, 1+len(s.blocks.buf))
		}
	}
	if want := []int{1, 1, 1, 1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12, 16, 22, 29, 39, 52, 63, 63}; !slices.Equal(sizes, want) {
		t.Fatalf("slab sizes %v, want %v", sizes, want)
	}
}
