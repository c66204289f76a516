package msync

import (
	"mgs/internal/msync/algo"
	"mgs/internal/obs"
	"mgs/internal/sim"
)

// rcLock wraps an algorithm's lock with what makes it an MGS
// synchronization point: the ordering yield, the profiler's per-lock
// attribution window, the release-consistency flush before a release,
// and the acquire-side validation after a grant. Algorithms stay pure
// ordering protocols.
type rcLock struct {
	m    *System
	id   int
	impl algo.Lock
}

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
	l.impl.Acquire(p)
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
	l.impl.Release(p)
}

// Stats reports the lock's hit and total acquire counts (Figure 11).
func (l *rcLock) Stats() (hits, total int64) { return l.impl.Stats() }

// rcBarrier is the barrier-side shim: arrival is a release point (the
// delayed update queue drains first, charged as MGS, and only then does
// the barrier account start) and exit an acquire point.
type rcBarrier struct {
	m    *System
	id   int
	impl algo.Barrier
}

// Arrive blocks processor p until all processors have arrived.
func (b *rcBarrier) Arrive(p *sim.Proc) {
	m := b.m
	p.Yield() // surface run-ahead before taking part in ordering
	pk, pid := m.st.ProfSet(p.ID, obs.ObjBarrier, int64(b.id))
	defer m.st.ProfSet(p.ID, pk, pid)
	m.dsm.ReleaseAll(p)
	b.impl.Arrive(p)
	m.dsm.AcquireSync(p) // a barrier exit is an acquire (lazy release)
}

// Episodes reports how many times the barrier has released.
func (b *rcBarrier) Episodes() int64 { return b.impl.Episodes() }
