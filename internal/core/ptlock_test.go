package core

import (
	"testing"

	"mgs/internal/sim"
	"mgs/internal/stats"
)

// ptlockFixture builds a machine and returns a clientPage to lock
// against (page state machinery is not exercised, only lk).
func ptlockFixture(t *testing.T, p, c int) (*testMachine, *clientPage) {
	t.Helper()
	tm := buildTest(p, c, 0, nil)
	va := tm.sys.Space().AllocPages(1024)
	return tm, tm.sys.ensurePage(tm.sys.ssmps[0], tm.sys.Space().PageOf(va))
}

// waker is a handler-context lock continuation that wakes the parked
// processor p, so a test observes when the continuation ran on p's
// clock.
func waker(tm *testMachine, cp *clientPage, p *sim.Proc) *message {
	w := tm.sys.newMsg(kLockWake, cp.page)
	w.p = p
	return w
}

func TestPTLockHandlerFastPath(t *testing.T) {
	tm, cp := ptlockFixture(t, 2, 2)
	var ran sim.Time = -1
	tm.bodies[1] = func(p *sim.Proc) {
		p.Park()
		ran = p.Clock()
	}
	tm.eng.At(100, func() { tm.sys.lockHandler(cp, waker(tm, cp, tm.procs[1]), 100) })
	tm.run(t)
	if ran != 100 {
		t.Fatalf("free-lock continuation ran at %d, want 100", ran)
	}
	if !cp.lk.held {
		t.Fatal("lock not held after handler acquisition")
	}
}

func TestPTLockHandlerQueuesAndHandsOverFIFO(t *testing.T) {
	tm, cp := ptlockFixture(t, 4, 4)
	var order []int
	var times []sim.Time
	for id := 1; id <= 3; id++ {
		tm.bodies[id] = func(p *sim.Proc) {
			p.Park()
			order = append(order, id)
			times = append(times, p.Clock())
			// Hold across 50 cycles, then release.
			p.Sleep(50)
			tm.sys.unlock(cp, p.Clock())
		}
	}
	tm.eng.At(100, func() {
		for id := 1; id <= 3; id++ {
			tm.sys.lockHandler(cp, waker(tm, cp, tm.procs[id]), 100)
		}
	})
	tm.run(t)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("handler order = %v, want FIFO [1 2 3]", order)
	}
	// Each handoff costs PTLockOp after the 50-cycle hold.
	step := 50 + tm.sys.cfg.Protocol.PTLockOp
	if times[1] != times[0]+step || times[2] != times[1]+step {
		t.Fatalf("handoff times = %v, want +%d apart", times, step)
	}
	if cp.lk.held {
		t.Fatal("lock held after the last grabber released")
	}
}

func TestPTLockUnlockWithoutWaitersFrees(t *testing.T) {
	tm, cp := ptlockFixture(t, 2, 2)
	tm.bodies[1] = func(p *sim.Proc) {
		p.Park()
		tm.sys.unlock(cp, p.Clock())
	}
	tm.eng.At(10, func() { tm.sys.lockHandler(cp, waker(tm, cp, tm.procs[1]), 10) })
	tm.run(t)
	if cp.lk.held {
		t.Fatal("lock held after release with empty wait list")
	}
}

func TestPTLockUnlockOfFreeLockPanics(t *testing.T) {
	tm, cp := ptlockFixture(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("unlock of free lock did not panic")
		}
	}()
	tm.sys.unlock(cp, 0)
}

// holdFrom has a handler-context continuation take cp's lock at time 0
// for processor 0, which releases it at until.
func holdFrom(tm *testMachine, cp *clientPage, until sim.Time) {
	tm.bodies[0] = func(p *sim.Proc) {
		p.Park()
		p.Sleep(until - p.Clock())
		tm.sys.unlock(cp, until)
	}
	tm.eng.At(0, func() { tm.sys.lockHandler(cp, waker(tm, cp, tm.procs[0]), 0) })
}

func TestPTLockProcBlocksUntilHandlerReleases(t *testing.T) {
	tm, cp := ptlockFixture(t, 2, 2)
	// A handler takes the lock at t=0 and holds it until t=5000; proc 1
	// tries to lock from processor context and must wait.
	holdFrom(tm, cp, 5000)
	var got sim.Time
	tm.bodies[1] = func(p *sim.Proc) {
		p.Sleep(10) // let the handler take the lock first
		tm.sys.lockProc(cp, p, stats.MGS)
		got = p.Clock()
		tm.sys.unlock(cp, p.Clock())
	}
	tm.run(t)
	if got < 5000 {
		t.Fatalf("proc acquired at %d, before handler released at 5000", got)
	}
}

func TestPTLockProcWaitChargedToCategory(t *testing.T) {
	tm, cp := ptlockFixture(t, 2, 2)
	holdFrom(tm, cp, 20_000)
	tm.bodies[1] = func(p *sim.Proc) {
		p.Sleep(10)
		tm.sys.lockProc(cp, p, stats.MGS)
		tm.sys.unlock(cp, p.Clock())
	}
	tm.run(t)
	if mgs := tm.st.Breakdown().PerProc[1][stats.MGS]; mgs < 15_000 {
		t.Fatalf("MGS charge = %d, want the ~20k lock wait attributed", mgs)
	}
}
