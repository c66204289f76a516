package mem

import (
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

func TestSnapshotIsIndependent(t *testing.T) {
	f := NewFrame(0, 64)
	f.Store64(0, 1)
	twin := f.Snapshot()
	f.Store64(0, 2)
	if twin[0] != 1 {
		t.Errorf("twin mutated with frame: twin[0] = %d", twin[0])
	}
	if f.Load64(0) != 2 {
		t.Errorf("frame lost store")
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
// Load/Store.
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
}
