package vm

import "testing"

// benchSink keeps the compiler from eliding benchmark loop bodies.
var benchSink Priv

// BenchmarkTLBLookup measures the hit path of a full software TLB — the
// cost every simulated memory access pays before anything else.
func BenchmarkTLBLookup(b *testing.B) {
	tlb := NewTLB(64)
	for p := Page(0); p < 64; p++ {
		tlb.Insert(p, Read)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pr Priv
	for i := 0; i < b.N; i++ {
		v, _ := tlb.Lookup(Page(i & 63))
		pr |= v
	}
	benchSink = pr
}

// BenchmarkTLBLookupMiss measures the miss path (page absent).
func BenchmarkTLBLookupMiss(b *testing.B) {
	tlb := NewTLB(64)
	for p := Page(0); p < 64; p++ {
		tlb.Insert(p, Read)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pr Priv
	for i := 0; i < b.N; i++ {
		v, _ := tlb.Lookup(Page(1000 + i&63))
		pr |= v
	}
	benchSink = pr
}

// BenchmarkTLBInsertEvict measures steady-state fills of a full TLB,
// each one displacing the FIFO-oldest entry. The pages cycle through a
// window of twice the capacity, so every fill misses and evicts while
// the mapping table stays the size a run's would.
func BenchmarkTLBInsertEvict(b *testing.B) {
	tlb := NewTLB(64)
	for p := Page(0); p < 64; p++ {
		tlb.Insert(p, Read)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Insert(Page(64+i)&127, Read)
	}
}

// TestLookupZeroAllocs pins the zero-allocation contract of the TLB hit
// path: every simulated memory access goes through Lookup.
func TestLookupZeroAllocs(t *testing.T) {
	tlb := NewTLB(64)
	for i := 0; i < 32; i++ {
		tlb.Insert(Page(i), Read)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 40; i++ {
			tlb.Lookup(Page(i))
		}
	})
	if allocs != 0 {
		t.Errorf("TLB.Lookup allocated %.1f times per op, want 0", allocs)
	}
}

// TestTLBDoesNotAllocate: a TLB's FIFO is its fixed share of the ring
// array MakeTLB is given, so fills, invalidations and evicting fills
// allocate nothing, however long invalidations keep the TLB below
// capacity. Each case runs once after a warm-up run, so a FIFO that
// grew by doubling would allocate again in the measured run.
func TestTLBDoesNotAllocate(t *testing.T) {
	tlb := MakeTLB(new(PageStore[Priv]), make([]uint32, 4))
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Insert and Invalidate below capacity", func() {
			for p := Page(0); p < 1<<12; p++ {
				tlb.Insert(p, Read)
				tlb.Invalidate(p)
			}
		}},
		{"an evicting Insert", func() {
			for p := Page(0); p < 1<<12; p++ {
				tlb.Insert(p, Write)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(1, c.f); allocs != 0 {
			t.Errorf("%s: %.1f allocations per run, want 0", c.name, allocs)
		}
	}
}

// BenchmarkTLBInvalidateRefill measures a protocol invalidation and the
// refill after it on a full TLB of 4,096 entries, the path a large TLB
// under invalidation-heavy sharing takes. The invalidated page walks
// the ring with a stride coprime to its size, so every distance from
// the oldest fill is scanned and shifted alike.
func BenchmarkTLBInvalidateRefill(b *testing.B) {
	const n = 4096
	tlb := NewTLB(n)
	for p := Page(0); p < n; p++ {
		tlb.Insert(p, Read)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := Page(i*1021) & (n - 1)
		tlb.Invalidate(p)
		tlb.Insert(p, Read)
	}
}
