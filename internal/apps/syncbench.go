package apps

import (
	"fmt"

	"mgs/internal/harness"
	"mgs/internal/sim"
)

// SyncBench is the synchronization microbenchmark behind exp.SyncSweep:
// every processor repeatedly acquires one global MGS lock, increments a
// shared counter inside a fixed-length critical section, releases, and
// then meets the whole machine at a barrier. The lock phase measures
// acquire latency and critical-section dilation under full contention;
// the barrier phase measures episode latency with every processor
// arriving nearly together. Both phases stress whichever algorithms the
// config selects (harness.WithLockAlgo / WithBarrierAlgo), so the same
// app compares the entire synchronization zoo.
type SyncBench struct {
	Iters int // lock/barrier rounds per processor

	nprocs int
	sum    I64Array // [0]: the lock-protected counter
	slots  I64Array // per-processor round tallies
}

// Name implements harness.App.
func (b *SyncBench) Name() string { return "syncbench" }

// Setup allocates the shared counter and the per-processor slot array.
func (b *SyncBench) Setup(m *harness.Machine) {
	b.nprocs = m.Cfg.P
	b.sum = AllocI64(m, 1)
	b.slots = AllocI64(m, b.nprocs)
}

// Body runs Iters rounds of acquire / read-modify-write / release
// followed by a global barrier. The 400-cycle Compute is the critical
// section's nominal work; everything beyond it in lock.heldcycles is
// protocol-induced dilation.
func (b *SyncBench) Body(c *harness.Ctx) {
	for k := 0; k < b.Iters; k++ {
		c.Acquire(0)
		v := b.sum.Load(c, 0)
		c.Compute(sim.Time(400))
		b.sum.Store(c, 0, v+1)
		c.Release(0)
		b.slots.Store(c, c.ID, int64(k+1))
		c.Barrier(0)
	}
}

// Verify checks the counter saw every increment (no lost updates — the
// mutual-exclusion oracle) and every processor completed every round.
func (b *SyncBench) Verify(m *harness.Machine) error {
	if got, want := b.sum.Get(m, 0), int64(b.nprocs*b.Iters); got != want {
		return fmt.Errorf("sum = %d, want %d (lost update)", got, want)
	}
	return b.slots.Visit(m, 0, b.nprocs, func(i int, got int64) error {
		if got != int64(b.Iters) {
			return fmt.Errorf("slot[%d] = %d, want %d", i, got, b.Iters)
		}
		return nil
	})
}
