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
// each one displacing the FIFO-oldest entry.
func BenchmarkTLBInsertEvict(b *testing.B) {
	tlb := NewTLB(64)
	for p := Page(0); p < 64; p++ {
		tlb.Insert(p, Read)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Insert(Page(64+i), Read)
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
