package exp

import (
	"bytes"
	"reflect"
	"testing"

	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/msync/algo"
)

// The synchronization zoo's end-to-end contracts, pinned at the exp
// layer: every lock×barrier algorithm pair survives the 5%-loss chaos
// envelope with byte-identical final memory, and the sweep itself is
// width-independent and reports sane metrics. Per-algorithm unit
// behaviour (fairness, hit accounting, pinned histograms) lives in
// internal/msync/algos_test.go; delivery-interleaving exhaustion lives
// in internal/check.

// syncCross is the full lock×barrier cross-product.
func syncCross() []SyncPair {
	var out []SyncPair
	for _, l := range algo.LockNames() {
		for _, b := range algo.BarrierNames() {
			out = append(out, SyncPair{Lock: l, Barrier: b})
		}
	}
	return out
}

// runSync runs the small syncbench on a P=8, C=2 machine with the given
// algorithms and plan, and returns the final memory image.
func runSync(t *testing.T, pair SyncPair, plan fault.Plan) []byte {
	t.Helper()
	cfg := harness.NewConfig(8, 2,
		harness.WithLockAlgo(pair.Lock), harness.WithBarrierAlgo(pair.Barrier))
	cfg.Fault = plan
	_, mem, err := harness.RunAppMem(SmallApp("syncbench"), cfg)
	if err != nil {
		t.Fatalf("syncbench %s/%s: %v", pair.Lock, pair.Barrier, err)
	}
	return mem
}

// TestSyncChaosMemEquivalence is the 5%-loss memory-equivalence gate
// over the full algorithm cross-product: message loss may change when
// everything happens, never what memory holds at the end — and the
// app's own lost-update oracle must still pass (RunAppMem verifies).
func TestSyncChaosMemEquivalence(t *testing.T) {
	for _, pair := range syncCross() {
		base := runSync(t, pair, fault.Plan{})
		for _, seed := range []uint64{1, 2} {
			mem := runSync(t, pair, SyncLossPlan(seed))
			if !bytes.Equal(base, mem) {
				t.Errorf("%s/%s seed=%d: 5%%-loss final memory diverges from fault-free",
					pair.Lock, pair.Barrier, seed)
			}
		}
	}
}

// TestSyncSweepWidthIndependent pins that SyncSweep's output is
// independent of the sweep width.
func TestSyncSweepWidthIndependent(t *testing.T) {
	sweep := func(workers int) []SyncPoint {
		pts, err := SyncSweep(8, []int{2, 8}, smallAt(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return pts
	}
	seq := sweep(1)
	par := sweep(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sweep diverges across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
	for _, pt := range seq {
		if !pt.MemOK {
			t.Errorf("%s/%s C=%d: loss run memory diverged", pt.Lock, pt.Barrier, pt.C)
		}
		if pt.LockHitRatio < 0 || pt.LockHitRatio > 1 {
			t.Errorf("%s/%s C=%d: hit ratio %v out of range", pt.Lock, pt.Barrier, pt.C, pt.LockHitRatio)
		}
		if pt.C < 8 && pt.BarrierMeanWait <= 0 {
			t.Errorf("%s/%s C=%d: no barrier wait recorded", pt.Lock, pt.Barrier, pt.C)
		}
		if pt.CSDilation < 1 {
			t.Errorf("%s/%s C=%d: CS dilation %v below nominal", pt.Lock, pt.Barrier, pt.C, pt.CSDilation)
		}
	}
}
