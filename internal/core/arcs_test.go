package core

import (
	"testing"

	"mgs/internal/sim"
	"mgs/internal/vm"
)

// Arc-by-arc verification of the Table 1 transitions, each exercising
// exactly one protocol path and checking the states, messages, and
// side effects the table specifies (modulo the documented deviations).

// Arc 1: RTLBFault with pagestate != INV fills the TLB from the local
// page table — no server traffic.
func TestArc1LocalReadFill(t *testing.T) {
	tm := buildTest(8, 4, 0, nil) // processors 0 and 1 share SSMP 0
	va := tm.sys.Space().AllocPages(1024)
	page := tm.sys.Space().PageOf(va)
	tm.bodies[0] = func(p *sim.Proc) { load64(tm.sys, p, va) } // maps page
	tm.bodies[1] = func(p *sim.Proc) {
		p.Sleep(500_000)
		before := tm.st.Counter("rreq")
		load64(tm.sys, p, va)
		if tm.st.Counter("rreq") != before {
			t.Error("transition 1 sent an RREQ")
		}
		if tm.st.Counter("tlbfill.local") == 0 {
			t.Error("no local TLB fill recorded")
		}
		if pr, ok := tm.sys.TLB(1).Lookup(page); !ok || pr != vm.Read {
			t.Errorf("TLB state = %v,%v, want TLB_READ", pr, ok)
		}
	}
	tm.run(t)
}

// Arc 2 + 13 + 18: WTLBFault on a READ page upgrades via the Remote
// Client (twin, UP_ACK) and notifies the Server (WNOTIFY moves the SSMP
// from read_dir to write_dir).
func TestArc2UpgradeChain(t *testing.T) {
	tm := buildTest(4, 2, 500, nil)
	va := tm.sys.Space().AllocPages(1024)
	page := tm.sys.Space().PageOf(va)
	tm.bodies[2] = func(p *sim.Proc) { // SSMP 1 (remote from home)
		load64(tm.sys, p, va)     // READ copy
		store64(tm.sys, p, va, 9) // upgrade
		if pr, _ := tm.sys.TLB(2).Lookup(page); pr != vm.Write {
			t.Errorf("TLB priv after upgrade = %v, want TLB_WRITE", pr)
		}
		if tm.sys.DUQLen(2) != 1 {
			t.Errorf("DUQ len = %d after upgrade, want 1 (arc 7 UP_ACK side effect)", tm.sys.DUQLen(2))
		}
	}
	tm.run(t)
	for _, c := range []string{"upgrade", "twin", "wnotify"} {
		if tm.st.Counter(c) != 1 {
			t.Errorf("counter %s = %d, want 1", c, tm.st.Counter(c))
		}
	}
	if tm.sys.Probe(1, page) != PWrite {
		t.Errorf("pagestate = %v, want WRITE (arc 13)", tm.sys.Probe(1, page))
	}
}

// Arcs 3/4: WTLBFault with pagestate WRITE is a local fill plus a DUQ
// insertion.
func TestArc34WriteRefill(t *testing.T) {
	tm := buildTest(4, 2, 500, nil)
	va := tm.sys.Space().AllocPages(1024)
	tm.bodies[2] = func(p *sim.Proc) {
		store64(tm.sys, p, va, 1) // WDAT: write copy
		tm.sys.ReleaseAll(p)      // 1W: copy retained, TLB shot down
		before := tm.st.Counter("wreq")
		beforeFill := tm.st.Counter("tlbfill.local")
		store64(tm.sys, p, va, 2) // arc 3/4: refill, no WREQ
		if tm.st.Counter("wreq") != before {
			t.Error("refill sent a WREQ")
		}
		if tm.st.Counter("tlbfill.local") != beforeFill+1 {
			t.Error("no local fill for the write refault")
		}
		if tm.sys.DUQLen(2) != 1 {
			t.Errorf("DUQ len = %d, want 1", tm.sys.DUQLen(2))
		}
	}
	tm.run(t)
}

// Arcs 5/6/17: fault on INV sends RREQ; the Server registers the SSMP
// in read_dir and ships RDAT; the client maps READ.
func TestArc5617ReadReplication(t *testing.T) {
	tm := buildTest(4, 2, 500, nil)
	va := tm.sys.Space().AllocPages(1024)
	page := tm.sys.Space().PageOf(va)
	tm.sys.BackdoorStore64(va, 31)
	var got uint64
	tm.bodies[2] = func(p *sim.Proc) { got = load64(tm.sys, p, va) }
	tm.run(t)
	if got != 31 {
		t.Fatalf("read %d, want 31", got)
	}
	if tm.st.Counter("rreq") != 1 || tm.st.Counter("rdat") != 1 {
		t.Errorf("rreq/rdat = %d/%d, want 1/1", tm.st.Counter("rreq"), tm.st.Counter("rdat"))
	}
	if tm.sys.Probe(1, page) != PRead {
		t.Errorf("pagestate = %v, want READ", tm.sys.Probe(1, page))
	}
}

// Arcs 5/7/18: write fault on INV ships WDAT, makes a twin at the
// client, and registers in write_dir (observable via the release
// behaviour: a later release runs a 1WINV round).
func TestArc5718WriteReplication(t *testing.T) {
	tm := buildTest(4, 2, 500, nil)
	va := tm.sys.Space().AllocPages(1024)
	tm.bodies[2] = func(p *sim.Proc) {
		store64(tm.sys, p, va, 5)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if tm.st.Counter("wdat") != 1 || tm.st.Counter("twin") != 1 {
		t.Errorf("wdat/twin = %d/%d, want 1/1", tm.st.Counter("wdat"), tm.st.Counter("twin"))
	}
	if tm.st.Counter("1winv") != 1 || tm.st.Counter("1wdata") != 1 {
		t.Errorf("1winv/1wdata = %d/%d, want 1/1 (write_dir had one member)",
			tm.st.Counter("1winv"), tm.st.Counter("1wdata"))
	}
}

// Arcs 8–10: a release drains the DUQ one page at a time, one REL/RACK
// pair per dirty page.
func TestArc8910SerialFlush(t *testing.T) {
	tm := buildTest(4, 2, 500, nil)
	a := tm.sys.Space().AllocPages(1024)
	b := tm.sys.Space().AllocPages(1024)
	c := tm.sys.Space().AllocPages(1024)
	tm.bodies[2] = func(p *sim.Proc) {
		store64(tm.sys, p, a, 1)
		store64(tm.sys, p, b, 2)
		store64(tm.sys, p, c, 3)
		if tm.sys.DUQLen(2) != 3 {
			t.Errorf("DUQ len = %d, want 3", tm.sys.DUQLen(2))
		}
		tm.sys.ReleaseAll(p)
		if tm.sys.DUQLen(2) != 0 {
			t.Errorf("DUQ len = %d after release, want 0", tm.sys.DUQLen(2))
		}
	}
	tm.run(t)
	if tm.st.Counter("rel") != 3 || tm.st.Counter("rack") != 3 {
		t.Errorf("rel/rack = %d/%d, want 3/3", tm.st.Counter("rel"), tm.st.Counter("rack"))
	}
}

// Arcs 11/14–16 (read side): invalidating a read copy cleans the page,
// shoots down every mapping (PINV per mapped processor), and replies
// ACK with no data.
func TestArc14ReadInvalidation(t *testing.T) {
	tm := buildTest(6, 2, 500, nil)
	va := tm.sys.Space().AllocPages(1024)
	page := tm.sys.Space().PageOf(va)
	tm.bodies[2] = func(p *sim.Proc) { load64(tm.sys, p, va) } // SSMP 1 reader
	tm.bodies[3] = func(p *sim.Proc) { load64(tm.sys, p, va) } // both procs map
	tm.bodies[4] = func(p *sim.Proc) {                         // SSMP 2 writer triggers the round
		p.Sleep(2_000_000)
		store64(tm.sys, p, va, 1)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if tm.st.Counter("ackinv") != 1 {
		t.Errorf("ackinv = %d, want 1", tm.st.Counter("ackinv"))
	}
	if tm.st.Counter("pinv") < 2 {
		t.Errorf("pinv = %d, want >= 2 (both mapped procs)", tm.st.Counter("pinv"))
	}
	if tm.sys.Probe(1, page) != PInv {
		t.Errorf("reader SSMP state = %v, want INV", tm.sys.Probe(1, page))
	}
	if _, ok := tm.sys.TLB(2).Lookup(page); ok {
		t.Error("proc 2's mapping survived the PINV")
	}
	if _, ok := tm.sys.TLB(3).Lookup(page); ok {
		t.Error("proc 3's mapping survived the PINV")
	}
}

// Arcs 14–16 (write side, multiple writers): both write copies reply
// with diffs and both diffs merge.
func TestArc14WriteInvalidationDiffs(t *testing.T) {
	tm := buildTest(6, 2, 500, nil)
	va := tm.sys.Space().AllocPages(1024)
	tm.bodies[2] = func(p *sim.Proc) { // SSMP 1
		store64(tm.sys, p, va+8, 100)
		p.Sleep(3_000_000)
		tm.sys.ReleaseAll(p)
	}
	tm.bodies[4] = func(p *sim.Proc) { // SSMP 2
		p.Sleep(1_000_000)
		store64(tm.sys, p, va+16, 200)
	}
	tm.run(t)
	if tm.st.Counter("diff") < 2 {
		t.Errorf("diff replies = %d, want >= 2", tm.st.Counter("diff"))
	}
	if got := tm.sys.BackdoorLoad64(va + 8); got != 100 {
		t.Errorf("word 1 = %d, want 100", got)
	}
	if got := tm.sys.BackdoorLoad64(va + 16); got != 200 {
		t.Errorf("word 2 = %d, want 200", got)
	}
}

// Arc 22: replication requests arriving during a release round queue
// and are served after it completes, with correct data.
func TestArc22QueuedRequest(t *testing.T) {
	tm := buildTest(6, 2, 2000, nil)
	va := tm.sys.Space().AllocPages(1024)
	var got uint64
	tm.bodies[2] = func(p *sim.Proc) { // writer, slow round via delay
		store64(tm.sys, p, va, 77)
		tm.sys.ReleaseAll(p)
	}
	tm.bodies[4] = func(p *sim.Proc) { // reader arrives mid-round
		p.Sleep(25_000)
		got = load64(tm.sys, p, va)
	}
	tm.run(t)
	if got != 77 {
		t.Fatalf("queued reader got %d, want 77", got)
	}
	if tm.st.Counter("req.pended") != 1 {
		t.Fatalf("req.pended = %d, want 1 (request must hit the round in progress)", tm.st.Counter("req.pended"))
	}
}

// Arc 20/21 distinction: a release of a page with only read copies
// sends INVs but no 1WINV.
func TestArc21ReadOnlyRound(t *testing.T) {
	tm := buildTest(6, 2, 500, nil)
	va := tm.sys.Space().AllocPages(1024)
	tm.bodies[2] = func(p *sim.Proc) { load64(tm.sys, p, va) } // SSMP 1 read copy
	tm.bodies[4] = func(p *sim.Proc) {                         // home-SSMP? no: SSMP 2 writes then releases
		p.Sleep(1_000_000)
		store64(tm.sys, p, va, 1)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	// The round targets SSMP1 (read) and SSMP2 (the single writer):
	// SSMP1 gets INV, SSMP2 gets 1WINV.
	if tm.st.Counter("inv") != 1 || tm.st.Counter("1winv") != 1 {
		t.Errorf("inv/1winv = %d/%d, want 1/1", tm.st.Counter("inv"), tm.st.Counter("1winv"))
	}
}

// Release with no remote copies (home-only dirty page) completes with a
// bare RACK — the fast path behind Jacobi's low breakup penalty.
func TestHomeOnlyReleaseIsCheap(t *testing.T) {
	tm := buildTest(4, 2, 500, nil)
	va := tm.sys.Space().AllocPages(1024)
	page := tm.sys.Space().PageOf(va)
	home := tm.sys.Space().HomeProc(page)
	if home/2 != 0 {
		t.Skip("allocator put the page off SSMP 0; layout changed")
	}
	tm.bodies[home] = func(p *sim.Proc) {
		store64(tm.sys, p, va, 5)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if tm.st.Counter("inv")+tm.st.Counter("1winv") != 0 {
		t.Errorf("home-only release ran an invalidation round")
	}
	if tm.st.Counter("rack") != 1 {
		t.Errorf("rack = %d, want 1", tm.st.Counter("rack"))
	}
}
