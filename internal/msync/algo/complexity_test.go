package algo_test

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"mgs/internal/harness"
	"mgs/internal/msync/algo"
	"mgs/internal/sim"
)

// The message-complexity oracle. Every algorithm runs in the DSM cost
// model Golab's CC-vs-DSM separation is stated in — a remote reference
// is an inter-SSMP message — so the textbook bounds are exact message
// counts on the uniform LAN. The bodies touch no shared memory: every
// inter-SSMP message counted below belongs to the algorithm. A
// cost-accounting slip fails here, not as a shifted table in
// EXPERIMENTS.md.

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int { return bits.Len(uint(n - 1)) }

// interMsgs runs bodyFor on a machine of nssmp SSMPs of c processors
// and returns the inter-SSMP message count.
func interMsgs(t *testing.T, nssmp, c int, lock, barrier string, bodyFor func(i int) func(*harness.Ctx)) int64 {
	t.Helper()
	m := harness.NewMachine(harness.NewConfig(nssmp*c, c,
		harness.WithLockAlgo(lock), harness.WithBarrierAlgo(barrier)))
	res, err := m.RunPer(bodyFor)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Sync.Quiescent(); err != nil {
		t.Fatal(err)
	}
	return res.InterMsgs
}

func TestRegistriesSortedAndTotal(t *testing.T) {
	if n := algo.LockNames(); !sort.StringsAreSorted(n) {
		t.Errorf("LockNames not sorted: %v", n)
	}
	if n := algo.BarrierNames(); !sort.StringsAreSorted(n) {
		t.Errorf("BarrierNames not sorted: %v", n)
	}
	for _, name := range append(algo.LockNames(), "") {
		if a, err := algo.LockByName(name); err != nil || a == nil {
			t.Errorf("LockByName(%q) = %v, %v", name, a, err)
		}
	}
	for _, name := range append(algo.BarrierNames(), "") {
		if a, err := algo.BarrierByName(name); err != nil || a == nil {
			t.Errorf("BarrierByName(%q) = %v, %v", name, a, err)
		}
	}
}

// TestBarrierMessagesPerEpisode pins each barrier's inter-SSMP messages
// per episode as a function of the SSMP count N (barrier 0 is homed in
// SSMP 0; local combining is intra-SSMP and free here).
func TestBarrierMessagesPerEpisode(t *testing.T) {
	perEpisode := map[string]func(n, c int) int{
		"tree":          func(n, c int) int { return 2 * (n - 1) },     // COMBINE + RELEASE per non-home SSMP
		"dissemination": func(n, c int) int { return log2ceil(n) * n }, // every SSMP sends once per round
		"mcstree":       func(n, c int) int { return 2 * (n - 1) },     // one ARRIVE up, one WAKE down per non-root
		"tournament":    func(n, c int) int { return 2 * (n - 1) },     // one ARRIVE per loser, one WAKE back
		"sense":         func(n, c int) int { return 2 * (n*c - c) },   // flat: ARRIVE + RELEASE per remote processor
	}
	const episodes = 3
	for _, name := range algo.BarrierNames() {
		want, ok := perEpisode[name]
		if !ok {
			t.Fatalf("no message-count shape pinned for barrier %q", name)
		}
		for _, shape := range [][2]int{{2, 2}, {3, 2}, {4, 2}, {8, 1}, {16, 1}} {
			n, c := shape[0], shape[1]
			t.Run(fmt.Sprintf("%s/N=%d,C=%d", name, n, c), func(t *testing.T) {
				got := interMsgs(t, n, c, "", name, func(i int) func(*harness.Ctx) {
					return func(ctx *harness.Ctx) {
						for e := 0; e < episodes; e++ {
							ctx.Compute(sim.Time(100 * (i + 1)))
							ctx.Barrier(0)
						}
					}
				})
				if got != int64(episodes*want(n, c)) {
					t.Fatalf("%d inter-SSMP messages over %d episodes, want %d per episode", got, episodes, want(n, c))
				}
			})
		}
	}
	// The tournament's static bracket halves dissemination's traffic
	// once log2(N) outgrows the constant: 30 against 64 at N=16.
	if tour, dis := perEpisode["tournament"](16, 1), perEpisode["dissemination"](16, 1); 2*tour > dis {
		t.Fatalf("tournament %d messages per episode at N=16, more than half of dissemination's %d", tour, dis)
	}
}

// passages runs w contenders — processors 1..w of a C=1 machine, so
// each in its own SSMP and none in the lock home's — through k
// passages each of lock 0, holding long enough that every other
// contender queues up behind the holder, and returns inter-SSMP
// messages per passage.
func passages(t *testing.T, lock string, w, k int) float64 {
	t.Helper()
	got := interMsgs(t, w+1, 1, lock, "", func(i int) func(*harness.Ctx) {
		if i == 0 {
			return func(*harness.Ctx) {}
		}
		return func(ctx *harness.Ctx) {
			for j := 0; j < k; j++ {
				ctx.Acquire(0)
				ctx.Compute(40_000)
				ctx.Release(0)
			}
		}
	})
	return float64(got) / float64(w*k)
}

// TestLockMessagesPerContendedPassage pins inter-SSMP messages per lock
// passage under sustained contention from w remote SSMPs.
func TestLockMessagesPerContendedPassage(t *testing.T) {
	const k = 4
	for _, name := range algo.LockNames() {
		for _, w := range []int{2, 4, 8} {
			got := passages(t, name, w, k)
			var want float64
			switch name {
			case "mcs":
				// SWAP to the home, SET-NEXT to the predecessor, PASS to
				// the successor: O(1) whatever the queue length. (The
				// first GRANT and the last REL make up the two ends.)
				want = 3
			case "ticket":
				want = 3 // REQ, GRANT, REL, all through the home
			case "token":
				// Every passage moves the token: REQ, DEMAND, BACK, GRANT.
				// The very first finds it at the home (DEMAND and BACK
				// intra-SSMP), and the idle token ends where it was last
				// used.
				want = 4 - 2/float64(w*k)
			case "tournament":
				// Logarithmic, not constant: pinned by
				// TestTournamentLockClimbIsLogarithmic; here only that
				// it grows with the machine.
				if w > 2 && got <= passages(t, name, w/2, k) {
					t.Errorf("tournament: %.2f messages per passage at %d SSMPs does not exceed the %d-SSMP cost", got, w+1, w/2+1)
				}
				continue
			default:
				t.Fatalf("no message-count shape pinned for lock %q", name)
			}
			if got != want {
				t.Errorf("%s with %d waiters: %.3f inter-SSMP messages per passage, want %.3f", name, w, got, want)
			}
		}
	}
}

// TestTokenLockTransferAndHandoff pins the token lock's two cases apart:
// a cross-SSMP transfer costs exactly REQ + DEMAND + BACK + GRANT, and a
// handoff inside the owning SSMP costs no message at all.
func TestTokenLockTransferAndHandoff(t *testing.T) {
	// Lock 0 is homed in SSMP 0; the token bounces between processor 2
	// (SSMP 1) and processor 4 (SSMP 2), strictly alternating.
	bounce := func(k int) int64 {
		return interMsgs(t, 3, 2, "token", "", func(i int) func(*harness.Ctx) {
			if i != 2 && i != 4 {
				return func(*harness.Ctx) {}
			}
			return func(ctx *harness.Ctx) {
				ctx.Proc.Sleep(sim.Time(i/4) * 50_000) // processor 4 goes second
				for j := 0; j < k; j++ {
					ctx.Acquire(0)
					ctx.Release(0)
					ctx.Proc.Sleep(100_000)
				}
			}
		})
	}
	if a, b := bounce(2), bounce(5); b-a != 4*2*(5-2) {
		t.Fatalf("6 more cross-SSMP transfers cost %d messages (%d -> %d), want 4 each", b-a, a, b)
	}
	// Both contenders in the home SSMP: every handoff is local.
	local := interMsgs(t, 2, 2, "token", "", func(i int) func(*harness.Ctx) {
		if i > 1 {
			return func(*harness.Ctx) {}
		}
		return func(ctx *harness.Ctx) {
			for j := 0; j < 5; j++ {
				ctx.Acquire(0)
				ctx.Compute(5_000)
				ctx.Release(0)
			}
		}
	})
	if local != 0 {
		t.Fatalf("in-SSMP handoffs sent %d inter-SSMP messages, want 0", local)
	}
}

// TestTournamentLockClimbIsLogarithmic: one uncontended passage from
// the last of N SSMPs climbs log2(N) remote arbiters, is granted from
// the root, and releases the same log2(N) nodes.
func TestTournamentLockClimbIsLogarithmic(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		got := interMsgs(t, n, 1, "tournament", "", func(i int) func(*harness.Ctx) {
			if i != n-1 {
				return func(*harness.Ctx) {}
			}
			return func(ctx *harness.Ctx) {
				ctx.Acquire(0)
				ctx.Release(0)
			}
		})
		if want := int64(2*log2ceil(n) + 1); got != want {
			t.Errorf("N=%d: %d inter-SSMP messages for one passage, want %d", n, got, want)
		}
	}
}

// TestSyncDoesNotAllocate pins every barrier and lock at zero
// allocations per steady-state episode or passage: each message is a
// record off the Env's pool, not a closure or a record of its own.
// Equal windows of work are compared (see TestUntracedEmitsDoNotBox),
// so the machine and the first episodes or passages cancel; 250
// episodes of 8 SSMPs send 4,000 tree and 8,000 sense messages. The
// records themselves come from a slab, a few hundred to an allocation,
// so an algorithm that stopped reusing them could stay under the noise
// bound: the steady window must also carve no record at all.
func TestSyncDoesNotAllocate(t *testing.T) {
	const noise = 16
	type window struct {
		kind, name string
		n0, w      int
		run        func(n int) tally
	}
	var windows []window
	for _, name := range algo.BarrierNames() {
		windows = append(windows, window{"barrier", name, 5, 250, func(n int) tally { return barrierEpisodes(t, 16, 2, name, n) }})
	}
	for _, name := range algo.LockNames() {
		windows = append(windows, window{"lock", name, 16, 240, func(n int) tally { return lockPassages(t, 16, 2, name, 0, n) }})
	}
	for _, w := range windows {
		_, second, r := windowAllocs(w.run, w.n0, w.w)
		if second >= noise || r.records != 0 {
			t.Errorf("%s %s allocates: %.0f allocations and %d message records carved in a window of %d, which sends %d messages",
				w.kind, w.name, second, r.records, w.w, r.msgs)
		}
	}
}

// TestUntracedEmitsDoNotBox: with no trace sink attached, no lock or
// barrier emit puts a value on the heap. Go boxes an integer of 256 or
// more when it becomes an interface, so every emit whose arguments can
// pass 255 tests Tracing first. Equal windows of work are compared: a
// barrier's episodes 6–255 against 256–505, and a lock's uncontended
// passages 17–256 against 257–496 (the ticket numbers). At P = 512,
// processor numbers pass 255 too: a lock's passages by processors
// 256–511 must allocate what those by 0–255 do, and a barrier episode
// nothing.
// The processors are coroutines, not OS threads. Equal means within
// noise: two runs of one machine differ by up to 5 allocations the Go
// runtime makes for itself, while a boxed argument costs one per event
// (129 for the token lock at P = 512, the fewest).
func TestUntracedEmitsDoNotBox(t *testing.T) {
	const noise = 16
	differ := func(a, b float64) bool { return a-b >= noise || b-a >= noise }
	for _, name := range algo.BarrierNames() {
		first, second, _ := windowAllocs(func(n int) tally { return barrierEpisodes(t, 16, 2, name, n) }, 5, 250)
		if differ(first, second) {
			t.Errorf("barrier %s: %.0f allocations in episodes 6–255, %.0f in 256–505", name, first, second)
		}
		first, second, r := windowAllocs(func(n int) tally { return barrierEpisodes(t, 512, 2, name, n) }, 2, 4)
		if differ(first, second) || second >= noise {
			t.Errorf("barrier %s at P=512: %.0f and %.0f allocations in two windows of 4 episodes, which send %d messages", name, first, second, r.msgs)
		}
	}
	for _, name := range algo.LockNames() {
		first, second, _ := windowAllocs(func(n int) tally { return lockPassages(t, 16, 2, name, 0, n) }, 16, 240)
		if differ(first, second) {
			t.Errorf("lock %s: %.0f allocations in passages 17–256, %.0f in 257–496", name, first, second)
		}
		low := testing.AllocsPerRun(1, func() { lockPassages(t, 512, 2, name, 0, 256) })
		high := testing.AllocsPerRun(1, func() { lockPassages(t, 512, 2, name, 256, 256) })
		if differ(low, high) {
			t.Errorf("lock %s at P=512: %.0f allocations for a passage by each of processors 0–255, %.0f by 256–511", name, low, high)
		}
	}
}

// tally is what one machine's run of a window's work did: the messages it
// sent and the message records its Env carved.
type tally struct{ msgs, records int64 }

// windowAllocs runs work(n) at n = n0, n0+w and n0+2w and returns the
// allocations of the two windows of w units of work between them (the
// machine and the first n0 units cancel), and what the second window
// added to the run.
func windowAllocs(work func(n int) tally, n0, w int) (first, second float64, r tally) {
	var allocs [3]float64
	var runs [3]tally
	for i := range allocs {
		allocs[i] = testing.AllocsPerRun(1, func() { runs[i] = work(n0 + i*w) })
	}
	return allocs[1] - allocs[0], allocs[2] - allocs[1], tally{runs[2].msgs - runs[1].msgs, runs[2].records - runs[1].records}
}

// barrierEpisodes runs n episodes of barrier 0 on P processors, C to an
// SSMP, arriving in a fixed staggered order, and returns the messages
// sent and the records carved.
func barrierEpisodes(t *testing.T, p, c int, barrier string, n int) tally {
	m := harness.NewMachine(harness.NewConfig(p, c, harness.WithBarrierAlgo(barrier)))
	res, err := m.RunPer(func(i int) func(*harness.Ctx) {
		return func(ctx *harness.Ctx) {
			for e := 0; e < n; e++ {
				ctx.Compute(sim.Time(100 * (i%3 + 1)))
				ctx.Barrier(0)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return tally{res.InterMsgs + res.IntraMsgs, res.Engine.SyncRecords.Carved}
}

// lockPassages runs n passages of lock 0 on P processors, C to an SSMP,
// one at a time: passage k starts at cycle 200,000·k, long after the
// one before has ended, and is made by processor first + k mod
// (P − first). It returns the messages sent and the records carved.
func lockPassages(t *testing.T, p, c int, lock string, first, n int) tally {
	const slot = 200_000
	m := harness.NewMachine(harness.NewConfig(p, c, harness.WithLockAlgo(lock)))
	res, err := m.RunPer(func(i int) func(*harness.Ctx) {
		return func(ctx *harness.Ctx) {
			for k := 0; k < n; k++ {
				if first+k%(p-first) != i {
					continue
				}
				if ctx.Clock() > sim.Time(k*slot) {
					t.Errorf("lock %s: passage %d starts after its slot", lock, k)
				}
				ctx.Compute(max(sim.Time(k*slot)-ctx.Clock(), 0))
				ctx.Acquire(0)
				ctx.Compute(10)
				ctx.Release(0)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return tally{res.InterMsgs + res.IntraMsgs, res.Engine.SyncRecords.Carved}
}
