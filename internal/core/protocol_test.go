package core

import (
	"math/rand"
	"testing"

	"mgs/internal/cache"
	"mgs/internal/msg"
	"mgs/internal/sim"
	"mgs/internal/stats"
	"mgs/internal/vm"
)

// testMachine assembles a minimal DSSMP for protocol tests.
type testMachine struct {
	eng    *sim.Engine
	sys    *System
	st     *stats.Collector
	procs  []*sim.Proc
	bodies []func(p *sim.Proc)
}

func testCacheCosts() cache.Costs {
	return cache.Costs{Hit: 2, Local: 11, Remote: 38, TwoParty: 42, ThreeParty: 63, Software: 425, CleanPerLine: 20}
}

func buildTest(p, c int, delay sim.Time, mutate func(*Config)) *testMachine {
	eng := sim.NewEngine()
	tm := &testMachine{eng: eng, bodies: make([]func(*sim.Proc), p)}
	for i := 0; i < p; i++ {
		i := i
		tm.procs = append(tm.procs, eng.NewProc(i, 0, func(pr *sim.Proc) {
			if tm.bodies[i] != nil {
				tm.bodies[i](pr)
			}
		}))
	}
	mc := msg.Costs{SendOverhead: 40, HandlerEntry: 100, PerHop: 2, BytesPerCycle: 1, InterDelay: delay, InterOverhead: 100}
	net := msg.NewNetwork(eng, tm.procs, c, mc)
	st := stats.NewCollector(p)
	net.OnHandler = func(proc int, cyc sim.Time) { st.Charge(proc, stats.MGS, cyc) }
	space := vm.NewSpace(1024, p)
	cfg := Config{
		NProcs: p, ClusterSize: c, PageSize: 1024, TLBSize: 64,
		Costs: DefaultCosts(), Variant: DefaultVariant(),
		CacheParams: cache.DefaultParams(), CacheCosts: testCacheCosts(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	tm.st = st
	tm.sys = New(eng, net, space, st, tm.procs, cfg)
	return tm
}

func (tm *testMachine) run(t *testing.T) {
	t.Helper()
	if err := tm.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// load64/store64 perform a full simulated access.
func load64(s *System, p *sim.Proc, va vm.Addr) uint64 {
	f, off := s.Access(p, va, false, false)
	return f.Load64(off)
}

func store64(s *System, p *sim.Proc, va vm.Addr, v uint64) {
	f, off := s.Access(p, va, true, false)
	f.Store64(off, v)
}

func TestLocalReadFaultAndRefill(t *testing.T) {
	tm := buildTest(4, 4, 0, nil) // one SSMP
	va := tm.sys.Space().AllocPages(1024)
	tm.sys.BackdoorStore64(va, 99)
	var got uint64
	tm.bodies[0] = func(p *sim.Proc) {
		got = load64(tm.sys, p, va)
	}
	tm.run(t)
	if got != 99 {
		t.Fatalf("read %d, want 99", got)
	}
	if tm.sys.Probe(0, tm.sys.Space().PageOf(va)) != PRead {
		t.Fatalf("page state = %v, want READ", tm.sys.Probe(0, tm.sys.Space().PageOf(va)))
	}
}

func TestWriteThenReadSameSSMP(t *testing.T) {
	tm := buildTest(4, 4, 0, nil)
	va := tm.sys.Space().AllocPages(1024)
	done := make(map[int]uint64)
	tm.bodies[0] = func(p *sim.Proc) { store64(tm.sys, p, va, 7) }
	tm.bodies[1] = func(p *sim.Proc) {
		p.Sleep(200000) // let proc 0 complete first in virtual time
		done[1] = load64(tm.sys, p, va)
	}
	tm.run(t)
	if done[1] != 7 {
		t.Fatalf("proc 1 read %d, want 7 (same-SSMP hardware sharing)", done[1])
	}
}

func TestCrossSSMPReleasePropagates(t *testing.T) {
	tm := buildTest(4, 2, 1000, nil) // 2 SSMPs of 2
	va := tm.sys.Space().AllocPages(1024)
	var got uint64
	tm.bodies[0] = func(p *sim.Proc) { // SSMP 0
		store64(tm.sys, p, va, 1234)
		tm.sys.ReleaseAll(p)
	}
	tm.bodies[2] = func(p *sim.Proc) { // SSMP 1
		p.Sleep(2_000_000)
		got = load64(tm.sys, p, va)
	}
	tm.run(t)
	if got != 1234 {
		t.Fatalf("remote read %d, want 1234", got)
	}
	if tm.sys.BackdoorLoad64(va) != 1234 {
		t.Fatalf("home copy = %d, want 1234", tm.sys.BackdoorLoad64(va))
	}
}

func TestMultipleWritersDiffMerge(t *testing.T) {
	tm := buildTest(4, 1, 500, nil) // 4 uniprocessor SSMPs: all-software DSM
	base := tm.sys.Space().AllocPages(1024)
	// Procs 1 and 2 write disjoint words of the same page, then release.
	tm.bodies[1] = func(p *sim.Proc) {
		store64(tm.sys, p, base+8, 111)
		tm.sys.ReleaseAll(p)
	}
	tm.bodies[2] = func(p *sim.Proc) {
		store64(tm.sys, p, base+16, 222)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if got := tm.sys.BackdoorLoad64(base + 8); got != 111 {
		t.Fatalf("word 1 = %d, want 111", got)
	}
	if got := tm.sys.BackdoorLoad64(base + 16); got != 222 {
		t.Fatalf("word 2 = %d, want 222", got)
	}
	if tm.st.Counter("rel") == 0 {
		t.Fatal("no REL recorded")
	}
}

func TestUpgradePath(t *testing.T) {
	tm := buildTest(4, 2, 1000, nil)
	va := tm.sys.Space().AllocPages(1024)
	tm.sys.BackdoorStore64(va, 5)
	tm.bodies[2] = func(p *sim.Proc) { // SSMP 1, page home is SSMP 0
		v := load64(tm.sys, p, va) // read fault: RREQ
		store64(tm.sys, p, va, v+1)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if got := tm.sys.BackdoorLoad64(va); got != 6 {
		t.Fatalf("home = %d, want 6", got)
	}
	if tm.st.Counter("upgrade") != 1 {
		t.Fatalf("upgrade count = %d, want 1", tm.st.Counter("upgrade"))
	}
	if tm.st.Counter("wnotify") != 1 {
		t.Fatalf("wnotify count = %d, want 1", tm.st.Counter("wnotify"))
	}
}

func TestSingleWriterOptimizationRetainsCopy(t *testing.T) {
	tm := buildTest(4, 2, 1000, nil)
	// Choose a page whose home is SSMP 0, write from SSMP 1.
	va := tm.sys.Space().AllocPages(1024)
	page := tm.sys.Space().PageOf(va)
	var faultsAfter int64
	tm.bodies[2] = func(p *sim.Proc) {
		store64(tm.sys, p, va, 1)
		tm.sys.ReleaseAll(p)
		before := tm.st.Counter("wreq")
		store64(tm.sys, p, va+8, 2) // refault: should be local fill, no WREQ
		faultsAfter = tm.st.Counter("wreq") - before
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if got := tm.sys.Probe(1, page); got != PWrite {
		t.Fatalf("writer SSMP state after release = %v, want WRITE (retained)", got)
	}
	if faultsAfter != 0 {
		t.Fatalf("re-write sent %d WREQs; single-writer copy should be retained", faultsAfter)
	}
	if tm.st.Counter("1wdata") < 1 {
		t.Fatalf("1wdata count = %d, want >= 1", tm.st.Counter("1wdata"))
	}
	if got := tm.sys.BackdoorLoad64(va + 8); got != 2 {
		t.Fatalf("home word = %d, want 2", got)
	}
}

func TestSingleWriterDisabledUsesDiff(t *testing.T) {
	tm := buildTest(4, 2, 1000, func(cfg *Config) { cfg.Variant.SingleWriter = false })
	va := tm.sys.Space().AllocPages(1024)
	page := tm.sys.Space().PageOf(va)
	tm.bodies[2] = func(p *sim.Proc) {
		store64(tm.sys, p, va, 1)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if got := tm.sys.Probe(1, page); got != PInv {
		t.Fatalf("writer SSMP state = %v, want INV (no retention)", got)
	}
	if tm.st.Counter("1wdata") != 0 {
		t.Fatal("1wdata sent with optimization disabled")
	}
	if tm.st.Counter("diff") == 0 {
		t.Fatal("no diff sent")
	}
	if got := tm.sys.BackdoorLoad64(va); got != 1 {
		t.Fatalf("home = %d, want 1", got)
	}
}

func TestStaleSingleWriterCopyInvalidatedByLaterRelease(t *testing.T) {
	// Regression for the write_dir-retention deviation: SSMP 1 writes
	// and releases (retains copy); SSMP 2 then writes and releases; a
	// read in SSMP 1 afterwards must refetch, not see its stale copy.
	tm := buildTest(6, 2, 1000, nil)
	va := tm.sys.Space().AllocPages(1024)
	var got uint64
	tm.bodies[2] = func(p *sim.Proc) { // SSMP 1
		store64(tm.sys, p, va, 10)
		tm.sys.ReleaseAll(p)
		p.Sleep(8_000_000)
		got = load64(tm.sys, p, va)
	}
	tm.bodies[4] = func(p *sim.Proc) { // SSMP 2
		p.Sleep(2_000_000)
		store64(tm.sys, p, va, 20)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if got != 20 {
		t.Fatalf("SSMP 1 read %d after SSMP 2's release, want 20", got)
	}
}

func TestTLBShootdownForcesRefault(t *testing.T) {
	tm := buildTest(6, 2, 1000, nil)
	va := tm.sys.Space().AllocPages(1024)
	page := tm.sys.Space().PageOf(va)
	var homeRead uint64
	tm.bodies[0] = func(p *sim.Proc) { // home SSMP reader
		load64(tm.sys, p, va)
		if _, ok := tm.sys.TLB(0).Lookup(page); !ok {
			t.Error("mapping missing after read")
		}
		p.Sleep(4_000_000)
		// The home SSMP reads the home frame in place: its mapping may
		// survive the round, but it must see the merged data.
		homeRead = load64(tm.sys, p, va)
	}
	tm.bodies[4] = func(p *sim.Proc) { // SSMP 2 remote reader
		load64(tm.sys, p, va)
	}
	tm.bodies[2] = func(p *sim.Proc) { // SSMP 1 writer
		p.Sleep(1_000_000)
		store64(tm.sys, p, va, 3)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if _, ok := tm.sys.TLB(4).Lookup(page); ok {
		t.Fatal("remote reader's TLB entry survived the release round's PINV")
	}
	if homeRead != 3 {
		t.Fatalf("home reader saw %d after the release, want 3", homeRead)
	}
}

func TestDisabledModeNoProtocol(t *testing.T) {
	tm := buildTest(4, 4, 0, func(cfg *Config) { cfg.Disabled = true })
	va := tm.sys.Space().AllocPages(1024)
	var got uint64
	tm.bodies[0] = func(p *sim.Proc) {
		store64(tm.sys, p, va, 42)
		tm.sys.ReleaseAll(p) // must be a no-op
	}
	tm.bodies[1] = func(p *sim.Proc) {
		p.Sleep(100000)
		got = load64(tm.sys, p, va)
	}
	tm.run(t)
	if got != 42 {
		t.Fatalf("read %d, want 42", got)
	}
	for _, k := range []string{"rreq", "wreq", "rel", "inv"} {
		if tm.st.Counter(k) != 0 {
			t.Fatalf("counter %s = %d in disabled mode", k, tm.st.Counter(k))
		}
	}
	if tm.st.Counter("tlbfill.null") == 0 {
		t.Fatal("no null fills recorded")
	}
}

func TestFalseSharingBothWritesSurvive(t *testing.T) {
	// Two SSMPs write adjacent 8-byte words (same cache line, same
	// page): the multiple-writer protocol must preserve both.
	tm := buildTest(4, 1, 200, nil)
	va := tm.sys.Space().AllocPages(1024)
	tm.bodies[0] = func(p *sim.Proc) {
		store64(tm.sys, p, va, 0xAAAA)
		tm.sys.ReleaseAll(p)
	}
	tm.bodies[1] = func(p *sim.Proc) {
		store64(tm.sys, p, va+8, 0xBBBB)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	if a := tm.sys.BackdoorLoad64(va); a != 0xAAAA {
		t.Fatalf("word 0 = %#x, want 0xAAAA", a)
	}
	if b := tm.sys.BackdoorLoad64(va + 8); b != 0xBBBB {
		t.Fatalf("word 1 = %#x, want 0xBBBB", b)
	}
}

// TestConcurrentReleaseSamePage: two SSMPs release the same page at
// nearly the same time; the second release folds into the round in
// progress and both must get RACKed (no deadlock, data intact).
func TestConcurrentReleaseSamePage(t *testing.T) {
	tm := buildTest(4, 1, 1000, nil)
	va := tm.sys.Space().AllocPages(1024)
	for i := 1; i <= 2; i++ {
		i := i
		tm.bodies[i] = func(p *sim.Proc) {
			store64(tm.sys, p, va+vm.Addr(8*i), uint64(i))
			tm.sys.ReleaseAll(p)
		}
	}
	tm.run(t)
	for i := 1; i <= 2; i++ {
		if got := tm.sys.BackdoorLoad64(va + vm.Addr(8*i)); got != uint64(i) {
			t.Fatalf("word %d = %d, want %d", i, got, i)
		}
	}
}

// TestProtocolStress drives a randomized, data-race-free workload:
// every processor owns a disjoint set of word slots scattered across
// shared pages (heavy false sharing), writes random values, releases at
// random points, and finally releases everything. The home copies must
// then hold every processor's last value. Runs across several machine
// shapes, twice each to confirm determinism.
func TestProtocolStress(t *testing.T) {
	shapes := []struct{ p, c int }{{4, 1}, {4, 2}, {8, 2}, {8, 4}, {8, 8}}
	for _, sh := range shapes {
		finalA := stressOnce(t, sh.p, sh.c, 77)
		finalB := stressOnce(t, sh.p, sh.c, 77)
		if finalA != finalB {
			t.Fatalf("P=%d C=%d: nondeterministic end time %d vs %d", sh.p, sh.c, finalA, finalB)
		}
	}
}

func stressOnce(t *testing.T, p, c int, seed int64) sim.Time {
	t.Helper()
	tm := buildTest(p, c, 700, nil)
	const npages = 6
	const slotsPerProc = 8
	base := tm.sys.Space().AllocPages(npages * 1024)
	want := make([][]uint64, p)
	slotVA := func(proc, slot int) vm.Addr {
		idx := slot*p + proc // interleave procs within pages
		return base + vm.Addr(idx*8)
	}
	// Ensure slots are disjoint: idx*8 ranges over distinct multiples
	// of 8 as long as slotsPerProc*p*8 <= npages*1024.
	if slotsPerProc*p*8 > npages*1024 {
		t.Fatal("slot layout overflows pages")
	}
	for i := 0; i < p; i++ {
		i := i
		want[i] = make([]uint64, slotsPerProc)
		rng := rand.New(rand.NewSource(seed + int64(i)))
		tm.bodies[i] = func(pr *sim.Proc) {
			for step := 0; step < 60; step++ {
				slot := rng.Intn(slotsPerProc)
				v := rng.Uint64()
				store64(tm.sys, pr, slotVA(i, slot), v)
				want[i][slot] = v
				if rng.Intn(7) == 0 {
					tm.sys.ReleaseAll(pr)
				}
				if rng.Intn(3) == 0 {
					// Read someone's slot; value unverifiable without
					// sync but must not wedge the protocol.
					load64(tm.sys, pr, slotVA(rng.Intn(p), rng.Intn(slotsPerProc)))
				}
			}
			tm.sys.ReleaseAll(pr)
		}
	}
	tm.run(t)
	for i := 0; i < p; i++ {
		for slot := 0; slot < slotsPerProc; slot++ {
			if want[i][slot] == 0 {
				continue
			}
			if got := tm.sys.BackdoorLoad64(slotVA(i, slot)); got != want[i][slot] {
				t.Fatalf("P=%d C=%d: proc %d slot %d = %#x, want %#x", p, c, i, slot, got, want[i][slot])
			}
		}
	}
	return tm.eng.Now()
}

// TestProbeAndAccessors exercises the introspection surface tools and
// tests rely on: Probe, DUQLen, TLB, CacheCounters, Config.
func TestProbeAndAccessors(t *testing.T) {
	tm := buildTest(4, 2, 500, nil)
	va := tm.sys.Space().AllocPages(1024)
	page := tm.sys.Space().PageOf(va)
	tm.bodies[2] = func(p *sim.Proc) {
		store64(tm.sys, p, va, 5)
		if got := tm.sys.DUQLen(2); got != 1 {
			t.Errorf("DUQLen(2) = %d, want 1 after a dirty write", got)
		}
		if st := tm.sys.Probe(1, page); st != PWrite {
			t.Errorf("Probe(ssmp 1) = %v, want WRITE", st)
		}
		if st := tm.sys.Probe(0, page); st != PInv {
			t.Errorf("Probe(ssmp 0) = %v, want INV", st)
		}
		if _, ok := tm.sys.TLB(2).Lookup(page); !ok {
			t.Error("TLB(2) missing mapping after write fill")
		}
		tm.sys.ReleaseAll(p)
		if got := tm.sys.DUQLen(2); got != 0 {
			t.Errorf("DUQLen(2) = %d after release, want 0", got)
		}
	}
	tm.run(t)
	if cfg := tm.sys.Config(); cfg.NProcs != 4 || cfg.ClusterSize != 2 {
		t.Fatalf("Config = %+v", cfg)
	}
	cc := tm.sys.CacheCounters()
	if cc.Accesses() == 0 {
		t.Fatal("CacheCounters saw no traffic")
	}
	if names := [4]string{PInv.String(), PRead.String(), PWrite.String(), PBusy.String()}; names != [4]string{"INV", "READ", "WRITE", "BUSY"} {
		t.Fatalf("state names = %v", names)
	}
}
