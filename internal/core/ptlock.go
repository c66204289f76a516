package core

import (
	"mgs/internal/sim"
	"mgs/internal/stats"
)

// ptLock is the per-(SSMP, page) shared-memory lock that serializes
// page-table state transitions (the "L" column of Table 1). Tasks
// (simulated processors) spin-wait on it; protocol handlers test it and
// queue a continuation if busy, per the paper's footnote 2, to avoid
// deadlocking the handler.
type ptLock struct {
	held    bool
	waiters []*message // FIFO of continuations; lock is handed over held
}

// lockProc acquires cp's page-table lock from processor context,
// charging the lock operation and any wait time to category cat.
func (s *System) lockProc(cp *clientPage, p *sim.Proc, cat stats.Category) {
	s.spend(p, cat, s.cfg.Costs.PTLockOp)
	if !cp.lk.held {
		cp.lk.held = true
		return
	}
	w := s.newMsg(kLockWake, cp.page)
	w.p = p
	cp.lk.waiters = append(cp.lk.waiters, w)
	s.parkCharge(p, cat)
}

// lockHandler acquires cp's lock from handler context for continuation
// k: k runs at time at if the lock is free, or later when the lock is
// handed over.
func (s *System) lockHandler(cp *clientPage, k *message, at sim.Time) {
	if !cp.lk.held {
		cp.lk.held = true
		k.Deliver(at)
		return
	}
	cp.lk.waiters = append(cp.lk.waiters, k)
}

// unlock releases cp's lock at time at, handing it to the next waiter if
// any. Callable from processor or handler context.
func (s *System) unlock(cp *clientPage, at sim.Time) {
	if !cp.lk.held {
		panic("core: unlock of free page-table lock")
	}
	if len(cp.lk.waiters) == 0 {
		cp.lk.held = false
		return
	}
	next := cp.lk.waiters[0]
	cp.lk.waiters = append(cp.lk.waiters[:0], cp.lk.waiters[1:]...)
	next.at = at + s.cfg.Costs.PTLockOp
	s.eng.AtHandler(next.at, next)
}
