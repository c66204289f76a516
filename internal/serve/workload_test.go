package serve

import (
	"reflect"
	"slices"
	"testing"
)

// TestZipfCDF: for any skew the CDF never decreases and ends at exactly
// 1, so rankOf always lands on a rank; with no skew every rank weighs
// the same.
func TestZipfCDF(t *testing.T) {
	for _, n := range []int{1, 2, 7, 256, 1024} {
		for _, theta := range []float64{0, 0.5, 0.9, 1, 2.5, 40, MaxTheta} {
			cdf := zipfCDF(n, theta)
			for r := 1; r < n; r++ {
				if cdf[r] < cdf[r-1] {
					t.Fatalf("n=%d theta=%g: cdf[%d]=%v below cdf[%d]=%v", n, theta, r, cdf[r], r-1, cdf[r-1])
				}
			}
			if len(cdf) != n || cdf[n-1] != 1 {
				t.Errorf("n=%d theta=%g: %d entries ending at %v, want %d ending at exactly 1", n, theta, len(cdf), cdf[len(cdf)-1], n)
			}
		}
	}
	for r, got := range zipfCDF(256, 0) {
		if want := float64(r+1) / 256; got != want {
			t.Fatalf("theta=0: cdf[%d] = %v, want uniform %v", r, got, want)
		}
	}
}

// TestMaxThetaIsWhereRankOneVanishes pins the bound's stated reason:
// at MaxTheta rank 1's weight is exactly 0, one step below it is not.
func TestMaxThetaIsWhereRankOneVanishes(t *testing.T) {
	if w := ipow(0.5, MaxTheta); w != 0 {
		t.Errorf("rank 1 weighs %v at theta=%d, want 0", w, MaxTheta)
	}
	if w := ipow(0.5, MaxTheta-1); w == 0 {
		t.Errorf("rank 1 already weighs 0 at theta=%d", MaxTheta-1)
	}
	if cdf := zipfCDF(8, MaxTheta); cdf[0] != 1 {
		t.Errorf("theta=%d leaves weight beyond rank 0: %v", MaxTheta, cdf)
	}
}

// TestRankOfIsLeastRankReaching: rankOf returns the least rank whose
// cumulative weight reaches u, checked against a linear scan, at the
// CDF's own entries (ties) and between them.
func TestRankOfIsLeastRankReaching(t *testing.T) {
	cdf := zipfCDF(64, 0.9)
	least := func(u float64) int {
		for r, c := range cdf {
			if c >= u {
				return r
			}
		}
		return len(cdf) - 1
	}
	us := []float64{0, 1e-12, 0.5, 0.999999, 1}
	for _, c := range cdf {
		us = append(us, c, c*0.999999)
	}
	s := stream{x: 99}
	for i := 0; i < 1000; i++ {
		us = append(us, s.unit())
	}
	for _, u := range us {
		if got, want := rankOf(cdf, u), least(u); got != want {
			t.Fatalf("rankOf(%v) = %d, want %d", u, got, want)
		}
	}
}

// TestGenerateIsPureAndSeeded: a trace is a function of (workload,
// nprocs) alone, its requests arrive in order, and two seeds give two
// different traces.
func TestGenerateIsPureAndSeeded(t *testing.T) {
	w := DefaultWorkload(true, 7)
	a, b := w.Generate(4), w.Generate(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations of one workload differ")
	}
	if len(a.Reqs) == 0 {
		t.Fatal("empty trace")
	}
	for i, r := range a.Reqs {
		if i > 0 && r.At < a.Reqs[i-1].At {
			t.Fatalf("request %d arrives at %d, before request %d at %d", i, r.At, i-1, a.Reqs[i-1].At)
		}
	}
	w.Seed = 8
	if c := w.Generate(4); reflect.DeepEqual(a.Reqs, c.Reqs) {
		t.Error("seeds 7 and 8 generate the same trace")
	}
}

// TestGenerateSizesOnce: Generate allocates the trace once at its final
// size, so a call costs three allocations (the two CDFs of the default
// workload's phases and Reqs) whatever the request count, and the
// processors' queues are exactly the round-robin split of Reqs, for
// processor counts that divide the trace, do not, and exceed it.
func TestGenerateSizesOnce(t *testing.T) {
	w := DefaultWorkload(true, 3)
	for _, nprocs := range []int{1, 3, 4, 7, 100_000} {
		tr := w.Generate(nprocs)
		if len(tr.Reqs) != cap(tr.Reqs) {
			t.Fatalf("nprocs %d: Reqs has len %d, cap %d", nprocs, len(tr.Reqs), cap(tr.Reqs))
		}
		want := make([][]Request, nprocs)
		for i, r := range tr.Reqs {
			want[i%nprocs] = append(want[i%nprocs], r)
		}
		for p := range nprocs {
			if got := slices.Collect(tr.Queue(p)); !slices.Equal(got, want[p]) {
				t.Fatalf("nprocs %d: queue %d holds %d requests, not its %d of the round-robin split", nprocs, p, len(got), len(want[p]))
			}
		}
	}
	if n := testing.AllocsPerRun(5, func() { w.Generate(8) }); n != 3 {
		t.Fatalf("Generate made %v allocations, want 3", n)
	}
}

// TestLatencyBucketsIncrease: the recorder's bucket bounds strictly
// increase, so every latency falls in exactly one bucket.
func TestLatencyBucketsIncrease(t *testing.T) {
	b := latencyBuckets()
	if len(b) < 2 {
		t.Fatalf("%d buckets", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bucket %d bound %d not above bucket %d bound %d", i, b[i], i-1, b[i-1])
		}
	}
}
