package core

import (
	"testing"

	"mgs/internal/sim"
)

func buildLazy(p, c int, delay sim.Time) *testMachine {
	return buildTest(p, c, delay, func(cfg *Config) { cfg.Variant.LazyRelease = true })
}

// TestLazyReleaseMergesWithoutInvalidation: a release pushes the diff
// home and completes without any invalidation round.
func TestLazyReleaseMergesWithoutInvalidation(t *testing.T) {
	tm := buildLazy(4, 2, 1000)
	va := tm.sys.Space().AllocPages(1024)
	tm.bodies[2] = func(p *sim.Proc) { // remote SSMP
		store64(tm.sys, p, va, 41)
		store64(tm.sys, p, va+8, 42)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if got := tm.sys.BackdoorLoad64(va); got != 41 {
		t.Fatalf("home word 0 = %d, want 41", got)
	}
	if got := tm.sys.BackdoorLoad64(va + 8); got != 42 {
		t.Fatalf("home word 1 = %d, want 42", got)
	}
	if n := tm.st.Counter("inv") + tm.st.Counter("1winv"); n != 0 {
		t.Fatalf("%d invalidations sent; lazy releases must send none", n)
	}
	if tm.st.Counter("lrel") != 1 {
		t.Fatalf("lrel = %d, want 1", tm.st.Counter("lrel"))
	}
}

// TestLazyStaleCopyUntilAcquire: after a remote release, an existing
// read copy keeps serving the old value until its SSMP acquires.
func TestLazyStaleCopyUntilAcquire(t *testing.T) {
	tm := buildLazy(6, 2, 1000)
	va := tm.sys.Space().AllocPages(1024)
	tm.sys.BackdoorStore64(va, 7)
	var before, stale, after uint64
	tm.bodies[2] = func(p *sim.Proc) { // reader SSMP 1
		before = load64(tm.sys, p, va) // fetch a copy: 7
		p.Sleep(200_000)               // writer releases meanwhile
		stale = load64(tm.sys, p, va)  // still the stale copy
		tm.sys.AcquireSync(p)          // acquire: write notice kills it
		after = load64(tm.sys, p, va)  // refetch the merged image
	}
	tm.bodies[4] = func(p *sim.Proc) { // writer SSMP 2
		p.Sleep(50_000)
		store64(tm.sys, p, va, 99)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if before != 7 {
		t.Fatalf("before = %d, want 7", before)
	}
	if stale != 7 {
		t.Fatalf("stale read = %d, want 7 (lazy mode must NOT invalidate)", stale)
	}
	if after != 99 {
		t.Fatalf("after acquire = %d, want 99", after)
	}
	if tm.st.Counter("acq.inval") != 1 {
		t.Fatalf("acq.inval = %d, want 1", tm.st.Counter("acq.inval"))
	}
}

// TestLazyAcquireFlushPreservesDirtyWrites: an SSMP with unreleased
// writes on a page that went stale must flush them at acquire, losing
// neither its own words nor the remote merge.
func TestLazyAcquireFlushPreservesDirtyWrites(t *testing.T) {
	tm := buildLazy(6, 2, 1000)
	va := tm.sys.Space().AllocPages(1024)
	var merged, mine uint64
	tm.bodies[2] = func(p *sim.Proc) { // SSMP 1: dirties word 0, holds it
		store64(tm.sys, p, va, 11)
		p.Sleep(200_000) // SSMP 2's release makes this copy stale
		tm.sys.AcquireSync(p)
		// The flush carried word 0 home and dropped the copy; both
		// writes must now be visible through a fresh fetch.
		mine = load64(tm.sys, p, va)
		merged = load64(tm.sys, p, va+8)
	}
	tm.bodies[4] = func(p *sim.Proc) { // SSMP 2: disjoint word
		p.Sleep(50_000)
		store64(tm.sys, p, va+8, 22)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if mine != 11 || merged != 22 {
		t.Fatalf("after flush: word0=%d word1=%d, want 11/22", mine, merged)
	}
	if tm.st.Counter("acq.flush") != 1 {
		t.Fatalf("acq.flush = %d, want 1", tm.st.Counter("acq.flush"))
	}
	if got := tm.sys.BackdoorLoad64(va); got != 11 {
		t.Fatalf("home word 0 = %d, want 11 (flush lost the dirty data)", got)
	}
}

// TestLazyVersionChainKeepsSoleWriterFresh: an SSMP repeatedly
// writing and releasing the same page with no other traffic must never
// see its own copy as stale (the version chain follows its merges).
func TestLazyVersionChainKeepsSoleWriterFresh(t *testing.T) {
	tm := buildLazy(4, 2, 1000)
	va := tm.sys.Space().AllocPages(1024)
	tm.bodies[2] = func(p *sim.Proc) {
		for k := 0; k < 5; k++ {
			store64(tm.sys, p, va, uint64(k+1))
			tm.sys.ReleaseAll(p)
			tm.sys.AcquireSync(p)
			p.Sleep(10_000)
		}
	}
	tm.run(t)
	if got := tm.sys.BackdoorLoad64(va); got != 5 {
		t.Fatalf("home = %d, want 5", got)
	}
	if n := tm.st.Counter("acq.stale"); n != 0 {
		t.Fatalf("acq.stale = %d, want 0 (sole writer's copy stayed fresh)", n)
	}
	// One initial fetch only: releases demote but never tear down.
	if n := tm.st.Counter("wreq") + tm.st.Counter("rreq"); n != 1 {
		t.Fatalf("fetches = %d, want 1", n)
	}
}

// TestLazyHomeReleaseAdvancesVersion: in-place home writes must make
// remote copies stale at their next acquire.
func TestLazyHomeReleaseAdvancesVersion(t *testing.T) {
	tm := buildLazy(6, 2, 1000)
	va := tm.sys.Space().AllocPages(1024) // page 1 homed at proc 1 (SSMP 0)
	var stale, fresh uint64
	tm.bodies[4] = func(p *sim.Proc) { // remote reader
		stale = load64(tm.sys, p, va)
		p.Sleep(200_000)
		tm.sys.AcquireSync(p)
		fresh = load64(tm.sys, p, va)
	}
	tm.bodies[0] = func(p *sim.Proc) { // home SSMP writer
		p.Sleep(50_000)
		store64(tm.sys, p, va, 77)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if stale != 0 || fresh != 77 {
		t.Fatalf("stale=%d fresh=%d, want 0/77", stale, fresh)
	}
	if tm.st.Counter("lrel.home") != 1 {
		t.Fatalf("lrel.home = %d, want 1", tm.st.Counter("lrel.home"))
	}
}

// TestLazyLockedCountersAcrossSSMPs: the classic correctness shape —
// read-modify-write under synchronization, emulated here by explicit
// release + acquire pairs serialized with sleeps.
func TestLazyLockedCountersAcrossSSMPs(t *testing.T) {
	tm := buildLazy(8, 2, 700)
	va := tm.sys.Space().AllocPages(1024)
	const rounds = 4
	for i := 0; i < 4; i++ {
		pr := i * 2 // one proc per SSMP
		turn := i
		tm.bodies[pr] = func(p *sim.Proc) {
			for k := 0; k < rounds; k++ {
				// Round-robin schedule stands in for a lock's total order.
				p.Sleep(sim.Time(300_000*(turn+4*k) + 1000))
				tm.sys.AcquireSync(p)
				v := load64(tm.sys, p, va)
				store64(tm.sys, p, va, v+1)
				tm.sys.ReleaseAll(p)
			}
		}
	}
	tm.run(t)
	if got := tm.sys.BackdoorLoad64(va); got != 4*rounds {
		t.Fatalf("counter = %d, want %d", got, 4*rounds)
	}
}

// TestLazyRelWaitSynchronizes: a release whose writes were already
// captured by an SSMP-mate's release still in flight must wait for that
// merge to reach the home (LRELWAIT) — completing early would let a
// lock hand over before the data is visible.
func TestLazyRelWaitSynchronizes(t *testing.T) {
	tm := buildLazy(4, 2, 5000)
	va := tm.sys.Space().AllocPages(1024)
	var bDone sim.Time
	tm.bodies[2] = func(p *sim.Proc) { // proc A: releases first
		store64(tm.sys, p, va, 1)
		p.Sleep(50_000 - p.Clock()%50_000) // release at a known time
		tm.sys.ReleaseAll(p)               // REL in flight ~50k..62k
	}
	tm.bodies[3] = func(p *sim.Proc) { // proc B, same SSMP
		p.Sleep(30_000)
		store64(tm.sys, p, va+8, 2) // same copy, before A's demote
		p.Sleep(52_000 - p.Clock()%52_000)
		tm.sys.ReleaseAll(p) // hits PRead while A's REL is in flight
		bDone = p.Clock()
	}
	tm.run(t)
	if tm.st.Counter("lrel.wait") != 1 {
		t.Fatalf("lrel.wait = %d, want 1 (B must wait on A's in-flight REL)", tm.st.Counter("lrel.wait"))
	}
	if got := tm.sys.BackdoorLoad64(va); got != 1 {
		t.Fatalf("home word 0 = %d, want 1", got)
	}
	if got := tm.sys.BackdoorLoad64(va + 8); got != 2 {
		t.Fatalf("home word 1 = %d, want 2", got)
	}
	// B's release completed no earlier than A's merge could have landed
	// at the home (REL departs ~50k, arrives after the 5000-cycle LAN
	// delay plus overheads).
	if bDone < 55_000 {
		t.Fatalf("B's release returned at %d, before A's merge reached home", bDone)
	}
}
