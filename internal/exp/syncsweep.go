package exp

import (
	"bytes"
	"fmt"
	"strings"

	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/msync/algo"
	"mgs/internal/obs"
	"mgs/internal/sim"
)

// Synchronization-zoo sweep: run apps.SyncBench under every lock and
// barrier algorithm across cluster sizes and compare the metrics the
// ISSUE calls out — MGS lock hit ratio, critical-section dilation, and
// mean barrier wait — on fault-free runs and under a 5%-loss transport.
// The faulty column doubles as an end-to-end equivalence gate: its final
// memory must be byte-identical to the fault-free run's.

// SyncPair names one lock/barrier algorithm combination.
type SyncPair struct {
	Lock, Barrier string
}

// SyncPairs returns the comparison set: every lock algorithm against
// the default barrier, then every non-default barrier algorithm against
// the default lock. The benchmark's lock and barrier phases are
// disjoint, so the full cross-product would quadruple the sweep without
// adding information; the CI matrix covers the cross-product instead.
func SyncPairs() []SyncPair {
	var out []SyncPair
	for _, l := range algo.LockNames() {
		out = append(out, SyncPair{Lock: l, Barrier: algo.DefaultBarrier})
	}
	for _, b := range algo.BarrierNames() {
		if b == algo.DefaultBarrier {
			continue
		}
		out = append(out, SyncPair{Lock: algo.DefaultLock, Barrier: b})
	}
	return out
}

// SyncLossPlan is the sweep's degraded-transport schedule: 5% message
// loss (the ISSUE's operating-envelope ceiling), fully deterministic
// per seed.
func SyncLossPlan(seed uint64) fault.Plan {
	return fault.Plan{Seed: seed, DropBP: 500}
}

// SyncPoint is one (pair, cluster size) sample of the sweep.
type SyncPoint struct {
	Lock, Barrier string
	C             int
	// Cycles is the fault-free parallel time.
	Cycles sim.Time
	// LockHitRatio is MGS lock hits over total acquires (Figure 11's
	// metric, per algorithm).
	LockHitRatio float64
	// CSDilation is the mean occupied cycles per critical section over
	// the 400-cycle nominal body: 1.0 means the lock adds nothing while
	// held; the excess is protocol time spent inside the section.
	CSDilation float64
	// BarrierMeanWait is the mean parked cycles per barrier arrival
	// (the barrier.waitcycles histogram's mean).
	BarrierMeanWait float64
	// LossCycles is the parallel time under SyncLossPlan.
	LossCycles sim.Time
	// MemOK reports the 5%-loss run's final memory was byte-identical
	// to the fault-free run's.
	MemOK bool
}

// syncNominalCS is SyncBench's critical-section Compute quantum.
const syncNominalCS = 400.0

// SyncSweep runs e.Apps("syncbench") for every SyncPairs combination
// at every cluster size in cs on a P=p machine, fault-free and under
// the 5%-loss plan. Points run concurrently; results are independent of
// the width.
func SyncSweep(p int, cs []int, e Env) ([]SyncPoint, error) {
	pairs := SyncPairs()
	points := make([]SyncPoint, len(pairs)*len(cs))
	err := e.each(len(points), func(i int) error {
		pair, c := pairs[i/len(cs)], cs[i%len(cs)]
		lock, barrier := harness.WithLockAlgo(pair.Lock), harness.WithBarrierAlgo(pair.Barrier)
		o := obs.New()
		res, mem, err := harness.RunAppMem(e.Apps("syncbench"),
			e.Config(p, c, harness.WithObserver(o), lock, barrier))
		if err != nil {
			return fmt.Errorf("syncsweep %s/%s C=%d: %w", pair.Lock, pair.Barrier, c, err)
		}
		lossRes, lossMem, err := harness.RunAppMem(e.Apps("syncbench"),
			e.Config(p, c, lock, barrier, harness.WithFaultPlan(SyncLossPlan(1))))
		if err != nil {
			return fmt.Errorf("syncsweep %s/%s C=%d loss: %w", pair.Lock, pair.Barrier, c, err)
		}
		pt := SyncPoint{
			Lock: pair.Lock, Barrier: pair.Barrier, C: c,
			Cycles:     res.Cycles,
			LossCycles: lossRes.Cycles,
			MemOK:      bytes.Equal(mem, lossMem),
		}
		if res.LockTotal > 0 {
			pt.LockHitRatio = float64(res.LockHits) / float64(res.LockTotal)
		}
		reg := o.Registry()
		if ncs := reg.Counter("lock.cs").Value(); ncs > 0 {
			pt.CSDilation = float64(reg.Counter("lock.heldcycles").Value()) /
				float64(ncs) / syncNominalCS
		}
		if h := reg.Histogram("barrier.waitcycles", nil); h.Count() > 0 {
			pt.BarrierMeanWait = float64(h.Sum()) / float64(h.Count())
		}
		points[i] = pt
		return nil
	})
	return points, err
}

// SyncCSV renders sweep points as CSV with a header row.
func SyncCSV(points []SyncPoint) string {
	var b strings.Builder
	b.WriteString("lock,barrier,c,cycles,lock_hit_ratio,cs_dilation,barrier_mean_wait,loss5_cycles,loss5_memok\n")
	for _, pt := range points {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%.3f,%.2f,%.0f,%d,%v\n",
			pt.Lock, pt.Barrier, pt.C, pt.Cycles, pt.LockHitRatio,
			pt.CSDilation, pt.BarrierMeanWait, pt.LossCycles, pt.MemOK)
	}
	return b.String()
}

// SyncClusterSizes filters the canonical C ∈ {1, 4, 8, 32} sample set
// down to the sizes valid for p processors.
func SyncClusterSizes(p int) []int {
	var out []int
	for _, c := range []int{1, 4, 8, 32} {
		if c <= p && p%c == 0 {
			out = append(out, c)
		}
	}
	return out
}
