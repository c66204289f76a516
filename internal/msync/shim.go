package msync

import (
	"mgs/internal/msync/algo"
	"mgs/internal/obs"
	"mgs/internal/sim"
)

// rcLock wraps an algorithm's lock with what makes it an MGS
// synchronization point: the ordering yield, the profiler's per-lock
// attribution window, the acquire count and the LockOp of taking and
// of freeing the lock, the release-consistency flush before a release,
// and the acquire-side validation after a grant. Algorithms stay pure
// ordering protocols; hits, Dump and Quiescent are the algorithm's own.
type rcLock struct {
	algo.Lock
	m     *System
	id    int
	total int64 // acquires
}

// Stats reports hit/total acquire counts (Figure 11): a hit is an
// acquire granted without inter-SSMP communication.
func (l *rcLock) Stats() (hits, total int64) { return l.Hits(), l.total }

// Acquire blocks processor p until it holds the lock. Time spent is
// attributed to the Lock category.
func (l *rcLock) Acquire(p *sim.Proc) {
	m := l.m
	// Synchronization operations are ordering-relevant: yield so every
	// event at or before this processor's clock settles first (and so a
	// spin loop of local acquires cannot starve the engine).
	p.Yield()
	pk, pid := m.st.ProfSet(p.ID, obs.ObjLock, int64(l.id))
	defer m.st.ProfSet(p.ID, pk, pid)
	l.total++
	m.env.ChargeLock(p, m.env.LockOp())
	l.Lock.Acquire(p)
	m.dsm.AcquireSync(p) // lazy-release acquire-side coherence
}

// Release drains the caller's delayed update queue (the release-
// consistency flush — this is where critical sections dilate under
// software coherence) and then releases the lock.
func (l *rcLock) Release(p *sim.Proc) {
	m := l.m
	p.Yield()
	pk, pid := m.st.ProfSet(p.ID, obs.ObjLock, int64(l.id))
	defer m.st.ProfSet(p.ID, pk, pid)
	m.dsm.ReleaseAll(p)
	m.env.ChargeLock(p, m.env.LockOp())
	l.Lock.Release(p)
}

// rcBarrier is the barrier-side shim: arrival is a release point (the
// delayed update queue drains first, charged as MGS, and only then does
// the barrier account start with the BarrierOp of arriving) and exit an
// acquire point.
type rcBarrier struct {
	algo.Barrier
	m  *System
	id int
}

// Arrive blocks processor p until all processors have arrived.
func (b *rcBarrier) Arrive(p *sim.Proc) {
	m := b.m
	p.Yield() // surface run-ahead before taking part in ordering
	pk, pid := m.st.ProfSet(p.ID, obs.ObjBarrier, int64(b.id))
	defer m.st.ProfSet(p.ID, pk, pid)
	m.dsm.ReleaseAll(p)
	m.env.ChargeBarrier(p, m.env.BarrierOp())
	b.Barrier.Arrive(p)
	m.dsm.AcquireSync(p) // a barrier exit is an acquire (lazy release)
}
