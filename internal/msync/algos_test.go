package msync

import (
	"testing"

	"mgs/internal/msync/algo"
	"mgs/internal/sim"
)

// lockAlgoUnderTest resolves name to its registered constructor.
func lockAlgoUnderTest(t *testing.T, name string) algo.NewLock {
	t.Helper()
	la, err := algo.LockByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return la
}

func barrierAlgoUnderTest(t *testing.T, name string) algo.NewBarrier {
	t.Helper()
	ba, err := algo.BarrierByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return ba
}

// TestAlgoLockMutualExclusion drives every lock algorithm through a
// round-robin contention scenario: mutual exclusion, an exact protected
// count, and no starvation.
func TestAlgoLockMutualExclusion(t *testing.T) {
	const per = 6
	for _, name := range algo.LockNames() {
		t.Run(name, func(t *testing.T) {
			tm := buildTest(8, 2, 800)
			tm.sync.SetAlgos(lockAlgoUnderTest(t, name), barrierAlgoUnderTest(t, "tree"))
			l := tm.sync.Lock(3)
			var held, violations, count int
			got := make([]int, 8)
			for i := 0; i < 8; i++ {
				i := i
				tm.bodies[i] = func(p *sim.Proc) {
					for k := 0; k < per; k++ {
						l.Acquire(p)
						if held != 0 {
							violations++
						}
						held++
						p.Sleep(500)
						held--
						count++
						got[i]++
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
			for i, n := range got {
				if n != per {
					t.Fatalf("proc %d completed %d acquires, want %d (starvation)", i, n, per)
				}
			}
			hits, total := l.Stats()
			if total != 8*per {
				t.Fatalf("total = %d, want %d", total, 8*per)
			}
			if hits < 0 || hits > total {
				t.Fatalf("hits = %d out of range [0, %d]", hits, total)
			}
			if err := tm.sync.Quiescent(); err != nil {
				t.Fatalf("not quiescent after run: %v", err)
			}
		})
	}
}

// TestAlgoLockSingleSSMPAllHits: with one SSMP every acquire is local,
// so every algorithm must report a hit ratio of 1.
func TestAlgoLockSingleSSMPAllHits(t *testing.T) {
	for _, name := range algo.LockNames() {
		t.Run(name, func(t *testing.T) {
			tm := buildTest(4, 4, 0)
			tm.sync.SetAlgos(lockAlgoUnderTest(t, name), barrierAlgoUnderTest(t, "tree"))
			l := tm.sync.Lock(0)
			for i := 0; i < 4; i++ {
				tm.bodies[i] = func(p *sim.Proc) {
					for k := 0; k < 5; k++ {
						l.Acquire(p)
						p.Advance(50)
						l.Release(p)
					}
				}
			}
			tm.run(t)
			hits, total := l.Stats()
			if total != 20 || hits != total {
				t.Fatalf("hits/total = %d/%d, want 20/20 at C=P", hits, total)
			}
		})
	}
}

// TestAlgoLockReleaseFlushesDUQ: the shim must keep every algorithm a
// release point (flush before release) and an acquire point.
func TestAlgoLockReleaseFlushesDUQ(t *testing.T) {
	for _, name := range algo.LockNames() {
		t.Run(name, func(t *testing.T) {
			tm := buildTest(4, 2, 500)
			tm.sync.SetAlgos(lockAlgoUnderTest(t, name), barrierAlgoUnderTest(t, "tree"))
			va := tm.dsm.Space().AllocPages(1024)
			l := tm.sync.Lock(0)
			tm.bodies[2] = func(p *sim.Proc) { // SSMP 1, page home SSMP 0
				l.Acquire(p)
				f, off := tm.dsm.Access(p, va, true, false)
				f.Store64(off, 77)
				if tm.dsm.DUQLen(p.ID) != 1 {
					t.Errorf("DUQ len = %d before release, want 1", tm.dsm.DUQLen(p.ID))
				}
				l.Release(p)
				if tm.dsm.DUQLen(p.ID) != 0 {
					t.Errorf("DUQ len = %d after release, want 0", tm.dsm.DUQLen(p.ID))
				}
			}
			tm.run(t)
			if f, off := tm.dsm.BackdoorFrame(va); f.Load64(off) != 77 {
				t.Fatalf("home = %d, want 77 (release must flush)", f.Load64(off))
			}
		})
	}
}

// TestAlgoBarrierSynchronizes drives every barrier algorithm through
// skewed-arrival phases at several cluster sizes, including the
// run-ahead straggler case, and checks no phase leaks.
func TestAlgoBarrierSynchronizes(t *testing.T) {
	for _, name := range algo.BarrierNames() {
		t.Run(name, func(t *testing.T) {
			for _, c := range []int{1, 2, 4, 8} {
				tm := buildTest(8, c, 600)
				tm.sync.SetAlgos(lockAlgoUnderTest(t, "token"), barrierAlgoUnderTest(t, name))
				b := tm.sync.Barrier(0)
				phase := make([]int, 8)
				for i := 0; i < 8; i++ {
					i := i
					tm.bodies[i] = func(p *sim.Proc) {
						for ph := 0; ph < 4; ph++ {
							p.Advance(sim.Time(100 * (i + 1))) // skewed arrival
							b.Arrive(p)
							phase[i]++
							for j := range phase {
								if phase[j] < phase[i]-1 {
									t.Errorf("C=%d: proc %d at phase %d saw proc %d at %d", c, i, phase[i], j, phase[j])
								}
							}
						}
					}
				}
				tm.run(t)
				if b.Episodes() != 4 {
					t.Fatalf("C=%d: episodes = %d, want 4", c, b.Episodes())
				}
				if err := tm.sync.Quiescent(); err != nil {
					t.Fatalf("C=%d: not quiescent after run: %v", c, err)
				}
			}
		})
	}
}

// TestAlgoBarrierRunAheadStraggler: under direct execution a processor
// can run far ahead of the others between yields (Advance does not
// yield) and arrive at the barrier first in ENGINE order while being
// last in VIRTUAL time. Nobody may leave the barrier before the
// straggler's virtual arrival, for any algorithm and wherever the
// barrier is homed — regression test for the combine-timestamp bug.
func TestAlgoBarrierRunAheadStraggler(t *testing.T) {
	for _, name := range algo.BarrierNames() {
		t.Run(name, func(t *testing.T) {
			for _, id := range []int{0, 1, 2} { // home in the straggler's SSMP, its second processor, the peer SSMP
				tm := buildTest(4, 2, 500)
				tm.sync.SetAlgos(lockAlgoUnderTest(t, "token"), barrierAlgoUnderTest(t, name))
				after := make([]sim.Time, 4)
				for i := 0; i < 4; i++ {
					i := i
					tm.bodies[i] = func(p *sim.Proc) {
						if i == 0 {
							p.Advance(300_000) // run-ahead: no yield before arrival
						}
						tm.sync.Barrier(id).Arrive(p)
						after[i] = p.Clock()
					}
				}
				tm.run(t)
				for i, v := range after {
					if v < 300_000 {
						t.Fatalf("id=%d: proc %d left barrier at %d, before the straggler's 300000", id, i, v)
					}
				}
			}
		})
	}
}

// TestAlgoBarrierIsReleasePoint: a write before the barrier must be
// home-visible after it, under every algorithm.
func TestAlgoBarrierIsReleasePoint(t *testing.T) {
	for _, name := range algo.BarrierNames() {
		t.Run(name, func(t *testing.T) {
			tm := buildTest(4, 2, 500)
			tm.sync.SetAlgos(lockAlgoUnderTest(t, "token"), barrierAlgoUnderTest(t, name))
			va := tm.dsm.Space().AllocPages(1024)
			b := tm.sync.Barrier(0)
			var got uint64
			tm.bodies[2] = func(p *sim.Proc) { // SSMP 1 writes
				f, off := tm.dsm.Access(p, va, true, false)
				f.Store64(off, 55)
				b.Arrive(p)
			}
			for _, i := range []int{0, 1, 3} {
				i := i
				tm.bodies[i] = func(p *sim.Proc) {
					b.Arrive(p)
					if i == 0 {
						f, off := tm.dsm.Access(p, va, false, false)
						got = f.Load64(off)
					}
				}
			}
			tm.run(t)
			if got != 55 {
				t.Fatalf("read %d after barrier, want 55 (barrier must flush)", got)
			}
		})
	}
}

// TestAlgoBarrierOddSSMPCount: 3 SSMPs exercises the bye/odd-subtree
// paths of the structured barriers.
func TestAlgoBarrierOddSSMPCount(t *testing.T) {
	for _, name := range algo.BarrierNames() {
		t.Run(name, func(t *testing.T) {
			tm := buildTest(6, 2, 400) // 3 SSMPs
			tm.sync.SetAlgos(lockAlgoUnderTest(t, "token"), barrierAlgoUnderTest(t, name))
			b := tm.sync.Barrier(1)
			for i := 0; i < 6; i++ {
				i := i
				tm.bodies[i] = func(p *sim.Proc) {
					for ph := 0; ph < 3; ph++ {
						p.Advance(sim.Time(77 * (i + 1)))
						b.Arrive(p)
					}
				}
			}
			tm.run(t)
			if b.Episodes() != 3 {
				t.Fatalf("episodes = %d, want 3", b.Episodes())
			}
			if err := tm.sync.Quiescent(); err != nil {
				t.Fatalf("not quiescent: %v", err)
			}
		})
	}
}

// pinnedSyncStats is the per-algorithm outcome of the deterministic
// 2-SSMP contention script in TestAlgoPinnedContentionScript. The
// numbers are pinned: a change means the algorithm's protocol, cycle
// charging, or histogram feeding changed, and must be intentional.
type pinnedSyncStats struct {
	hits, total int64 // lock Stats()
	waitCount   int64 // lock.waitcycles observations
	waitSum     int64 // lock.waitcycles total parked cycles
}

// TestAlgoPinnedContentionScript runs a fixed 2-SSMP, 4-processor
// contention script under every lock algorithm and pins hit/total and
// the wait-histogram count and sum.
func TestAlgoPinnedContentionScript(t *testing.T) {
	want := map[string]pinnedSyncStats{
		"token":      {hits: 3, total: 12, waitCount: 11, waitSum: 58688},
		"ticket":     {hits: 6, total: 12, waitCount: 12, waitSum: 58666},
		"mcs":        {hits: 7, total: 12, waitCount: 12, waitSum: 35700},
		"tournament": {hits: 6, total: 12, waitCount: 12, waitSum: 66402},
	}
	for _, name := range algo.LockNames() {
		t.Run(name, func(t *testing.T) {
			tm := buildTest(4, 2, 600)
			tm.sync.SetAlgos(lockAlgoUnderTest(t, name), barrierAlgoUnderTest(t, "tree"))
			l := tm.sync.Lock(0)
			for i := 0; i < 4; i++ {
				i := i
				tm.bodies[i] = func(p *sim.Proc) {
					p.Sleep(sim.Time(200 * i)) // fixed stagger
					for k := 0; k < 3; k++ {
						l.Acquire(p)
						p.Advance(400)
						l.Release(p)
						p.Sleep(900)
					}
				}
			}
			tm.run(t)
			h := tm.st.Registry().Histogram("lock.waitcycles", nil)
			got := pinnedSyncStats{waitCount: h.Count(), waitSum: h.Sum()}
			got.hits, got.total = l.Stats()
			if w, ok := want[name]; !ok {
				t.Fatalf("no pinned stats for %q: got %+v", name, got)
			} else if got != w {
				t.Fatalf("pinned stats changed: got %+v, want %+v", got, w)
			}
		})
	}
}

// TestAlgoBarrierWaitHistogram: every barrier algorithm must feed the
// barrier.waitcycles histogram exactly once per processor per episode.
func TestAlgoBarrierWaitHistogram(t *testing.T) {
	for _, name := range algo.BarrierNames() {
		t.Run(name, func(t *testing.T) {
			tm := buildTest(8, 2, 600)
			tm.sync.SetAlgos(lockAlgoUnderTest(t, "token"), barrierAlgoUnderTest(t, name))
			b := tm.sync.Barrier(0)
			for i := 0; i < 8; i++ {
				i := i
				tm.bodies[i] = func(p *sim.Proc) {
					for ph := 0; ph < 3; ph++ {
						p.Advance(sim.Time(100 * (i + 1)))
						b.Arrive(p)
					}
				}
			}
			tm.run(t)
			h := tm.st.Registry().Histogram("barrier.waitcycles", nil)
			if h.Count() != 8*3 {
				t.Fatalf("wait observations = %d, want 24", h.Count())
			}
			if h.Sum() <= 0 {
				t.Fatalf("wait sum = %d, want > 0", h.Sum())
			}
		})
	}
}

// TestSetAlgosAfterUsePanics: algorithms are a machine-wide choice and
// cannot change once a primitive exists.
func TestSetAlgosAfterUsePanics(t *testing.T) {
	tm := buildTest(4, 2, 500)
	tm.sync.Lock(0)
	defer func() {
		if recover() == nil {
			t.Fatal("SetAlgos after Lock() did not panic")
		}
	}()
	tm.sync.SetAlgos(lockAlgoUnderTest(t, "ticket"), barrierAlgoUnderTest(t, "tree"))
}
