package exp

import (
	"reflect"
	"testing"
)

// The synchronization zoo's sweep contract, pinned at the exp layer:
// the sweep is width-independent and reports sane metrics. Every
// lock×barrier pair meets the loss plans on the machine table
// (machines_test.go). Per-algorithm unit
// behaviour (fairness, hit accounting, pinned histograms) lives in
// internal/msync/algos_test.go; delivery-interleaving exhaustion lives
// in internal/check.

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
