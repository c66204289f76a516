package core

import (
	"testing"

	"mgs/internal/mem"
)

// diffPage builds a 1K twin/current pair with the given set of changed
// byte offsets.
func diffPage(changed func(i int) bool) (twin, cur []byte) {
	const size = 1024
	twin = make([]byte, size)
	cur = make([]byte, size)
	for i := 0; i < size; i++ {
		twin[i] = byte(i)
		cur[i] = byte(i)
		if changed(i) {
			cur[i] = byte(i) + 1
		}
	}
	return twin, cur
}

// diffPatterns are the change shapes the diff benchmarks and the
// zero-allocation test share.
var diffPatterns = []struct {
	name    string
	changed func(i int) bool
}{
	{"Clean", func(i int) bool { return false }},
	{"Sparse", func(i int) bool { return i%128 < 8 }},
	{"Dense", func(i int) bool { return true }},
	{"Alternating", func(i int) bool { return i%2 == 0 }},
}

func benchDiff(b *testing.B, changed func(i int) bool) {
	b.Helper()
	twin, cur := diffPage(changed)
	var buf DiffBuf
	buf.Compute(twin, cur) // grow to the high-water mark
	b.ReportAllocs()
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		d := buf.Compute(twin, cur)
		n += d.Len()
	}
	_ = n
}

// BenchmarkComputeDiffClean scans a page with no changes — the dominant
// case for read-mostly pages caught in a release round.
func BenchmarkComputeDiffClean(b *testing.B) {
	benchDiff(b, diffPatterns[0].changed)
}

// BenchmarkComputeDiffSparse scans a mostly-clean page: one 8-byte
// write per 128-byte stretch (a typical false-sharing page).
func BenchmarkComputeDiffSparse(b *testing.B) {
	benchDiff(b, diffPatterns[1].changed)
}

// BenchmarkComputeDiffDense scans a page where every word changed (a
// fully rewritten page).
func BenchmarkComputeDiffDense(b *testing.B) {
	benchDiff(b, diffPatterns[2].changed)
}

// BenchmarkComputeDiffAlternating is the worst case for range
// coalescing: every other byte changed, one range per changed byte.
func BenchmarkComputeDiffAlternating(b *testing.B) {
	benchDiff(b, diffPatterns[3].changed)
}

// TestComputeDiffZeroAllocs pins the steady-state contract of the
// buffered diff path: once a DiffBuf has grown to a workload's
// high-water mark, recomputing any change pattern allocates nothing.
// The protocol's release rounds (the System's diff-buffer pool,
// diffTwin) rely on this — a regression here turns every invalidation
// into garbage.
func TestComputeDiffZeroAllocs(t *testing.T) {
	for _, p := range diffPatterns {
		twin, cur := diffPage(p.changed)
		var buf DiffBuf
		buf.Compute(twin, cur) // warm: grow ranges and payload slab
		allocs := testing.AllocsPerRun(100, func() {
			buf.Compute(twin, cur)
		})
		if allocs != 0 {
			t.Errorf("%s: DiffBuf.Compute allocated %.1f times per op, want 0", p.name, allocs)
		}
	}
}

// TestComputeDiffOwnedAllocs pins the throwaway form: ComputeDiff sizes
// its storage exactly, so the only allocations are two exact-size ones
// (range headers + payload slab) — and zero for a clean page, whose
// diff is empty. Before the exact-size rewrite a cold `var b DiffBuf` compute cost 5 allocs/op (four
// growth-by-doubling appends plus the payload slab).
func TestComputeDiffOwnedAllocs(t *testing.T) {
	for _, p := range diffPatterns {
		twin, cur := diffPage(p.changed)
		want := 2.0
		if p.name == "Clean" {
			want = 0
		}
		allocs := testing.AllocsPerRun(100, func() {
			ComputeDiff(twin, cur)
		})
		if allocs != want {
			t.Errorf("%s: ComputeDiff allocated %.1f times per op, want %.0f", p.name, allocs, want)
		}
	}
}

// diffSink keeps the accessor results live inside AllocsPerRun.
var diffSink int

// TestDiffPoolRoundTripZeroAllocs pins the full protocol-path shape the
// release and refresh handlers use: draw a pooled buffer, compute,
// apply the diff to a home image, return the buffer. Once the pool is
// warm the whole round trip allocates nothing, and neither do the Diff
// accessors the handlers size and label messages with. This test is
// the only check on the lazy-release and update-refresh paths staying
// allocation-free.
func TestDiffPoolRoundTripZeroAllocs(t *testing.T) {
	for _, p := range diffPatterns {
		twin, cur := diffPage(p.changed)
		home := make([]byte, len(cur))
		copy(home, twin)
		// Warm: grow one recycled buffer to this pattern's high-water mark.
		var s System
		cp := &clientPage{twin: twin, frame: &mem.Frame{Data: cur}}
		db, _ := s.diffTwin(cp)
		s.diffBufs.Put(db)
		allocs := testing.AllocsPerRun(100, func() {
			db, d := s.diffTwin(cp)
			d.Apply(home)
			diffSink += d.Len() + d.Bytes(8) + int(d.Checksum())
			s.diffBufs.Put(db)
		})
		if allocs != 0 {
			t.Errorf("%s: pooled diff round trip allocated %.1f times per op, want 0", p.name, allocs)
		}
	}
}
