package msync

import (
	"testing"

	"mgs/internal/cache"
	"mgs/internal/core"
	"mgs/internal/msg"
	"mgs/internal/msync/algo"
	"mgs/internal/sim"
	"mgs/internal/stats"
	"mgs/internal/vm"
)

type testMachine struct {
	eng    *sim.Engine
	dsm    *core.System
	sync   *System
	net    *msg.Network
	st     *stats.Collector
	procs  []*sim.Proc
	bodies []func(p *sim.Proc)
}

func buildTest(p, c int, delay sim.Time) *testMachine {
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
	cfg := core.Config{
		P: p, C: c, PageSize: 1024, TLBSize: 64,
		Protocol: core.DefaultCosts(), Variant: core.DefaultVariant(), CacheHW: cache.DefaultParams(),
		Cache: cache.Costs{Hit: 2, Local: 11, Remote: 38, TwoParty: 42, ThreeParty: 63, Software: 425, CleanPerLine: 20},
	}
	tm.st, tm.net = st, net
	tm.dsm = core.New(eng, net, space, st, tm.procs, cfg)
	tm.sync = New(eng, tm.dsm, net, st, algo.DefaultCosts(), nil)
	return tm
}

func (tm *testMachine) run(t *testing.T) {
	t.Helper()
	if err := tm.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLockHitRatioGrowsWithClusterSize(t *testing.T) {
	ratio := func(c int) float64 {
		tm := buildTest(8, c, 1000)
		lock := tm.sync.Lock(3)
		for i := 0; i < 8; i++ {
			tm.bodies[i] = func(p *sim.Proc) {
				for k := 0; k < 10; k++ {
					lock.Acquire(p)
					p.Advance(50)
					lock.Release(p)
				}
			}
		}
		tm.run(t)
		h, tot := lock.Stats()
		return float64(h) / float64(tot)
	}
	r1, r8 := ratio(1), ratio(8)
	if r8 != 1.0 {
		t.Fatalf("single-SSMP hit ratio = %v, want 1.0", r8)
	}
	if r1 >= r8 {
		t.Fatalf("hit ratio did not grow with cluster size: C=1 %v, C=8 %v", r1, r8)
	}
}

func TestLockFairnessAcrossSSMPs(t *testing.T) {
	// With continuous demand from every SSMP, every processor must
	// still complete all its acquires (no starvation).
	tm := buildTest(8, 2, 800)
	lock := tm.sync.Lock(1)
	got := make([]int, 8)
	for i := 0; i < 8; i++ {
		i := i
		tm.bodies[i] = func(p *sim.Proc) {
			for k := 0; k < 8; k++ {
				lock.Acquire(p)
				got[i]++
				p.Advance(30)
				lock.Release(p)
			}
		}
	}
	tm.run(t)
	for i, n := range got {
		if n != 8 {
			t.Fatalf("proc %d completed %d acquires, want 8", i, n)
		}
	}
}

func TestBarrierMessageCount(t *testing.T) {
	// The tree barrier must use exactly 2 inter-SSMP messages per
	// non-home SSMP per episode (combine + release), plus intra ones.
	tm := buildTest(8, 2, 600)
	b := tm.sync.Barrier(0)
	for i := 0; i < 8; i++ {
		tm.bodies[i] = func(p *sim.Proc) { b.Arrive(p) }
	}
	tm.run(t)
	// 4 SSMPs; home is in SSMP 0. COMBINE from SSMPs 1-3 = 3 inter,
	// RELEASE to SSMPs 1-3 = 3 inter. SSMP 0's combine+release are
	// intra. Total inter = 6.
	if got := tm.net.Counters.InterMsgs; got != 6 {
		t.Fatalf("inter-SSMP messages = %d, want 6", got)
	}
}

func TestManyLocksIndependent(t *testing.T) {
	tm := buildTest(4, 2, 300)
	counters := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		tm.bodies[i] = func(p *sim.Proc) {
			l := tm.sync.Lock(i % 2)
			for k := 0; k < 6; k++ {
				l.Acquire(p)
				counters[i%2]++
				l.Release(p)
			}
		}
	}
	tm.run(t)
	if counters[0] != 12 || counters[1] != 12 {
		t.Fatalf("counters = %v, want [12 12]", counters)
	}
	h, tot := tm.sync.LockStats()
	if tot != 24 {
		t.Fatalf("aggregate total = %d, want 24", tot)
	}
	if h > tot {
		t.Fatalf("hits %d > total %d", h, tot)
	}
}

func TestLockHomedPlacesToken(t *testing.T) {
	tm := buildTest(8, 2, 500)
	// Lock homed at proc 6 (SSMP 3): its first acquire from SSMP 3 is
	// a hit; from SSMP 0 it needs the token.
	l := tm.sync.LockHomed(42, 6)
	tm.bodies[6] = func(p *sim.Proc) {
		l.Acquire(p)
		p.Advance(10)
		l.Release(p)
	}
	tm.bodies[0] = func(p *sim.Proc) {
		p.Sleep(100_000)
		l.Acquire(p)
		l.Release(p)
	}
	tm.run(t)
	hits, total := l.Stats()
	if total != 2 || hits != 1 {
		t.Fatalf("hits/total = %d/%d, want 1/2 (home-side acquire hits)", hits, total)
	}
}

// TestBarrierReusableAcrossEpisodes runs the same barrier several times
// and checks every episode holds everyone.
func TestBarrierReusableAcrossEpisodes(t *testing.T) {
	const rounds = 5
	tm := buildTest(4, 2, 500)
	var mismatches int
	arrived := 0
	for i := 0; i < 4; i++ {
		i := i
		tm.bodies[i] = func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(sim.Time(1000 * (i + 1))) // skewed arrivals
				arrived++
				tm.sync.Barrier(2).Arrive(p)
				// Everyone must observe all arrivals of this round.
				if arrived != 4*(r+1) {
					mismatches++
				}
			}
		}
	}
	tm.run(t)
	if mismatches != 0 {
		t.Fatalf("%d barrier episodes leaked early arrivals", mismatches)
	}
	if got := tm.sync.Barrier(2).Episodes(); got != rounds {
		t.Fatalf("episodes = %d, want %d", got, rounds)
	}
}

// TestBarrierSingleSSMP: with C = P the barrier degenerates to the
// local combine plus one self-directed combine/release pair.
func TestBarrierSingleSSMP(t *testing.T) {
	tm := buildTest(4, 4, 0)
	done := 0
	for i := 0; i < 4; i++ {
		tm.bodies[i] = func(p *sim.Proc) {
			tm.sync.Barrier(0).Arrive(p)
			done++
		}
	}
	tm.run(t)
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
}

// TestLockDemandWhileHeld: a DEMAND arriving while the local lock is
// held must be remembered and honored at the next release, sending the
// token home rather than handing it to a local waiter first.
func TestLockDemandWhileHeld(t *testing.T) {
	tm := buildTest(4, 2, 1000)
	var order []int
	tm.bodies[0] = func(p *sim.Proc) { // SSMP 0 holds the token (home)
		l := tm.sync.Lock(0)
		l.Acquire(p)
		p.Sleep(100_000) // hold while SSMP 1 requests
		l.Release(p)
		order = append(order, 0)
	}
	tm.bodies[2] = func(p *sim.Proc) { // SSMP 1 wants it mid-hold
		p.Sleep(20_000)
		l := tm.sync.Lock(0)
		l.Acquire(p)
		order = append(order, 2)
		l.Release(p)
	}
	tm.run(t)
	if len(order) != 2 || order[0] != 0 || order[1] != 2 {
		t.Fatalf("order = %v, want [0 2]", order)
	}
	hits, total := tm.sync.Lock(0).Stats()
	if total != 2 || hits != 1 {
		t.Fatalf("hits/total = %d/%d, want 1/2 (remote acquire is a miss)", hits, total)
	}
}

// TestLockTokenRoundRobinAcrossSSMPs: contenders in every SSMP must
// each get the lock the right number of times, and the counter they
// protect must be exact — the protocol-level mutual exclusion test at
// msync's own layer.
func TestLockTokenRoundRobinAcrossSSMPs(t *testing.T) {
	const per = 6
	tm := buildTest(8, 2, 800)
	var held int
	var violations, count int
	for i := 0; i < 8; i++ {
		tm.bodies[i] = func(p *sim.Proc) {
			l := tm.sync.Lock(3)
			for k := 0; k < per; k++ {
				l.Acquire(p)
				if held != 0 {
					violations++
				}
				held++
				p.Sleep(500)
				held--
				count++
				l.Release(p)
				p.Sleep(sim.Time(1000 + p.ID*300))
			}
		}
	}
	tm.run(t)
	if violations != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations)
	}
	if count != 8*per {
		t.Fatalf("count = %d, want %d", count, 8*per)
	}
	if _, total := tm.sync.Lock(3).Stats(); total != 8*per {
		t.Fatalf("total acquires = %d, want %d", total, 8*per)
	}
}

// TestLockTokenReturnsHomeWhenIdle: after a remote SSMP's only holder
// releases with no one waiting anywhere, a later demand cycle must
// still find the token reachable (onTokenBack's empty-queue path hands
// it to the home SSMP).
func TestLockTokenReturnsHomeWhenIdle(t *testing.T) {
	tm := buildTest(4, 2, 600)
	seq := 0
	tm.bodies[2] = func(p *sim.Proc) { // remote takes the token first
		l := tm.sync.LockHomed(9, 0)
		l.Acquire(p)
		seq = 1
		l.Release(p)
	}
	tm.bodies[0] = func(p *sim.Proc) { // much later, home reacquires
		p.Sleep(400_000)
		l := tm.sync.LockHomed(9, 0)
		l.Acquire(p)
		if seq != 1 {
			t.Errorf("home acquired before remote released")
		}
		seq = 2
		l.Release(p)
	}
	tm.run(t)
	if seq != 2 {
		t.Fatalf("seq = %d, want 2", seq)
	}
}
