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
	a := NewFrameAllocatorAt(0, 256)
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
// this sequence is a simulated output; the fresh frames come from five
// header slabs (1, 2, 4, 8, 16), whose boundaries must not show.
func TestAllocatorIDSequence(t *testing.T) {
	const base = 3 << 40
	a := NewFrameAllocatorAt(base, 64)
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
	if len(a.headers.buf) != 16 {
		t.Fatalf("header slab of %d, want 16: the sequence no longer spans five slabs", len(a.headers.buf))
	}
}

// TestSlabGrowth pins the slab's geometric growth and its cap: the
// first 127 values come from slabs of 1, 2, 4 … 64, every later slab
// holds 64, and every value is fresh and zero.
func TestSlabGrowth(t *testing.T) {
	var s Slab[[2]int]
	var sizes []int
	seen := map[*[2]int]bool{}
	for range 127 + 2*maxSlab {
		p := s.New()
		if *p != [2]int{} || seen[p] {
			t.Fatalf("New returned a used value %p = %v", p, *p)
		}
		seen[p] = true
		p[0] = 1
		if s.used == 1 {
			sizes = append(sizes, len(s.buf))
		}
	}
	if want := []int{1, 2, 4, 8, 16, 32, 64, 64, 64}; !slices.Equal(sizes, want) {
		t.Fatalf("slab sizes %v, want %v", sizes, want)
	}
}
