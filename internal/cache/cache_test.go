package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"mgs/internal/mem"
	"mgs/internal/sim"
)

func testCosts() Costs {
	return Costs{Hit: 2, Local: 11, Remote: 38, TwoParty: 42, ThreeParty: 63, Software: 425, CleanPerLine: 20}
}

func newTestDomain(nprocs int) (*Domain, *mem.Frame, *Dir) {
	d := NewDomain(nprocs, 1024, DefaultParams(), testCosts())
	f := mem.NewFrame(7, 1024)
	dir := NewDir(0, 1024, 16)
	d.Register(f, dir)
	return d, f, dir
}

func TestColdMissThenHit(t *testing.T) {
	d, f, dir := newTestDomain(4)
	c, k := d.Access(0, f, dir, 0, false)
	if k != LocalMiss || c != 11 {
		t.Fatalf("cold read by home node: kind=%v cost=%d, want local/11", k, c)
	}
	c, k = d.Access(0, f, dir, 8, false)
	if k != Hit || c != 2 {
		t.Fatalf("same-line read: kind=%v cost=%d, want hit/2", k, c)
	}
}

func TestRemoteCleanMiss(t *testing.T) {
	d, f, dir := newTestDomain(4)
	_, k := d.Access(1, f, dir, 0, false)
	if k != RemoteCleanMiss {
		t.Fatalf("remote clean read: kind=%v, want remote", k)
	}
}

func TestDirtyMissClassification(t *testing.T) {
	d, f, dir := newTestDomain(4)
	// Proc 2 writes (dirty, owner=2, home=0).
	d.Access(2, f, dir, 0, true)
	// Proc 0 (home) reads: two-party.
	_, k := d.Access(0, f, dir, 0, false)
	if k != TwoParty {
		t.Fatalf("home reads dirty remote: kind=%v, want 2party", k)
	}
	// Proc 3 writes, then proc 1 (not home, not owner) reads: 3-party.
	d.Access(3, f, dir, 16, true)
	_, k = d.Access(1, f, dir, 16, false)
	if k != ThreeParty {
		t.Fatalf("third party reads dirty: kind=%v, want 3party", k)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d, f, dir := newTestDomain(4)
	for p := 0; p < 4; p++ {
		d.Access(p, f, dir, 0, false)
	}
	// All four share. Proc 1 writes: others must be invalidated.
	_, k := d.Access(1, f, dir, 0, true)
	if k != Upgrade {
		t.Fatalf("write to shared line: kind=%v, want upgrade", k)
	}
	for p := 0; p < 4; p++ {
		st := d.cachedState(p, f, 0)
		if p == 1 && st != Modified {
			t.Fatalf("writer state = %v, want Modified", st)
		}
		if p != 1 && st != Inv {
			t.Fatalf("sharer %d state = %v, want Inv", p, st)
		}
	}
}

func TestReadDowngradesOwner(t *testing.T) {
	d, f, dir := newTestDomain(2)
	d.Access(0, f, dir, 0, true)
	d.Access(1, f, dir, 0, false)
	if st := d.cachedState(0, f, 0); st != Shared {
		t.Fatalf("owner after remote read = %v, want Shared", st)
	}
	if st := d.cachedState(1, f, 0); st != Shared {
		t.Fatalf("reader = %v, want Shared", st)
	}
}

func TestSoftwareDirectoryOverflow(t *testing.T) {
	d := NewDomain(8, 1024, DefaultParams(), testCosts())
	f := mem.NewFrame(1, 1024)
	dir := NewDir(0, 1024, 16)
	d.Register(f, dir)
	// 5 hardware pointers; the 6th reader goes to software.
	var k MissKind
	for p := 0; p < 6; p++ {
		_, k = d.Access(p, f, dir, 0, false)
	}
	if k != SoftwareDir {
		t.Fatalf("6th sharer kind = %v, want swdir", k)
	}
	if d.Counters.ByKind[SoftwareDir] != 1 {
		t.Fatalf("swdir count = %d, want 1", d.Counters.ByKind[SoftwareDir])
	}
}

func TestEvictionUpdatesDirectory(t *testing.T) {
	params := Params{LineSize: 16, CacheBytes: 64, HWPointers: 5} // 4-line cache
	d := NewDomain(2, 64, params, testCosts())
	f1 := mem.NewFrame(0, 64)
	f2 := mem.NewFrame(4, 64) // chosen so lines conflict (same slots)
	dir1 := NewDir(0, 64, 16)
	dir2 := NewDir(0, 64, 16)
	d.Register(f1, dir1)
	d.Register(f2, dir2)
	d.Access(0, f1, dir1, 0, true) // dirty in proc 0
	d.Access(0, f2, dir2, 0, true) // conflicts: evicts f1 line 0
	if st := d.cachedState(0, f1, 0); st != Inv {
		t.Fatalf("evicted line state = %v, want Inv", st)
	}
	if dir1.entries[0].owner != -1 {
		t.Fatalf("directory owner after eviction = %d, want -1", dir1.entries[0].owner)
	}
	// A fresh read by proc 1 must be a plain miss, not see a stale owner.
	_, k := d.Access(1, f1, dir1, 0, false)
	if k != RemoteCleanMiss {
		t.Fatalf("read after eviction: kind = %v, want remote clean", k)
	}
}

func TestCleanPage(t *testing.T) {
	d, f, dir := newTestDomain(4)
	for p := 0; p < 4; p++ {
		d.Access(p, f, dir, p*16, true)
		d.Access(p, f, dir, 512+p*16, false)
	}
	cost := d.CleanPage(f, dir)
	if want := sim.Time(64 * 20); cost != want {
		t.Fatalf("clean cost = %d, want %d", cost, want)
	}
	for p := 0; p < 4; p++ {
		for off := 0; off < 1024; off += 16 {
			if st := d.cachedState(p, f, off); st != Inv {
				t.Fatalf("proc %d off %d still cached (%v) after clean", p, off, st)
			}
		}
	}
	for li, e := range dir.entries {
		if e.sharers != 0 || e.owner != -1 {
			t.Fatalf("dir entry %d not reset after clean: %+v", li, e)
		}
	}
}

// TestDirectoryInvariants drives random traffic and checks after every
// access that directory state and cache state agree: the owner really
// holds a Modified copy, sharers really hold Shared copies, a line never
// has both an owner and sharers, and no cache holds a line the directory
// does not know about.
func TestDirectoryInvariants(t *testing.T) {
	const nprocs = 6
	params := Params{LineSize: 16, CacheBytes: 256, HWPointers: 5} // tiny: force evictions
	d := NewDomain(nprocs, 256, params, testCosts())
	nframes := 4
	frames := make([]*mem.Frame, nframes)
	dirs := make([]*Dir, nframes)
	for i := range frames {
		frames[i] = mem.NewFrame(uint64(i), 256)
		dirs[i] = NewDir(i%nprocs, 256, 16)
		d.Register(frames[i], dirs[i])
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 20000; step++ {
		p := rng.Intn(nprocs)
		fi := rng.Intn(nframes)
		off := rng.Intn(256/16) * 16
		d.Access(p, frames[fi], dirs[fi], off, rng.Intn(2) == 0)

		for i := 0; i < nframes; i++ {
			for li := range dirs[i].entries {
				e := dirs[i].entries[li]
				if e.owner >= 0 && e.sharers != 0 {
					t.Fatalf("step %d: frame %d line %d has owner %d and sharers %b", step, i, li, e.owner, e.sharers)
				}
				if e.owner >= 0 {
					if st := d.cachedState(int(e.owner), frames[i], li*16); st != Modified {
						t.Fatalf("step %d: owner %d does not hold Modified copy (%v)", step, e.owner, st)
					}
				}
				for s := e.sharers; s != 0; s &= s - 1 {
					sp := trailingZeros(s)
					if st := d.cachedState(sp, frames[i], li*16); st != Shared {
						t.Fatalf("step %d: sharer %d state %v, want Shared", step, sp, st)
					}
				}
			}
		}
	}
	if d.Counters.Accesses() != 20000 {
		t.Fatalf("counter total = %d, want 20000", d.Counters.Accesses())
	}
}

// TestSingleWriterInvariant: after any write, no other cache holds the
// line in any state.
func TestSingleWriterInvariant(t *testing.T) {
	const nprocs = 5
	d, f, dir := newTestDomain(nprocs)
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 5000; step++ {
		p := rng.Intn(nprocs)
		off := rng.Intn(64) * 16
		write := rng.Intn(3) == 0
		d.Access(p, f, dir, off, write)
		if write {
			for q := 0; q < nprocs; q++ {
				if q == p {
					continue
				}
				if st := d.cachedState(q, f, off); st != Inv {
					t.Fatalf("step %d: proc %d holds %v after proc %d wrote", step, q, st, p)
				}
			}
		}
	}
}

func BenchmarkAccessHit(b *testing.B) {
	d, f, dir := newTestDomain(4)
	d.Access(0, f, dir, 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(0, f, dir, 0, false)
	}
}

func BenchmarkAccessMissMix(b *testing.B) {
	d, f, dir := newTestDomain(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(i%8, f, dir, (i%64)*16, i%5 == 0)
	}
}

// A processor's tag and state arrays are allocated by its first Access.
// One that never accessed holds nothing: it reports Inv, and cleaning a
// page or dropping a line it never held leaves it untouched, without
// allocating its arrays as a side effect.
func TestNeverAccessedProcessorHoldsNothing(t *testing.T) {
	d, f, dir := newTestDomain(4)
	d.Access(0, f, dir, 0, true)
	d.Access(1, f, dir, 16, false)
	const idle = 3
	if st := d.cachedState(idle, f, 0); st != Inv {
		t.Fatalf("idle processor reports %v for a line it never touched, want Inv", st)
	}
	d.dropLine(idle, d.lineAddr(f, 0), false)
	d.dropLine(idle, d.lineAddr(f, 16), true)
	d.CleanPage(f, dir)
	if st := d.cachedState(idle, f, 16); st != Inv {
		t.Fatalf("idle processor reports %v after CleanPage, want Inv", st)
	}
	if c := d.caches[idle]; c.tags != nil || c.state != nil {
		t.Fatal("idle processor's cache arrays were allocated although it never accessed")
	}
	if d.caches[0].tags == nil || d.caches[1].tags == nil {
		t.Fatal("accessing processors have no cache arrays")
	}
}

// A directory recycled with Reset — the protocol hands a torn-down
// copy's directory to the next copy its SSMP maps — must be
// indistinguishable from a fresh NewDir, whatever sharers and owners it
// held: equal as a value, and charging the same costs for the same
// accesses.
func TestResetDirIsAFreshDir(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, f, used := newTestDomain(8)
	for i := 0; i < 2000; i++ {
		d.Access(rng.Intn(8), f, used, rng.Intn(1024), rng.Intn(3) == 0)
	}
	d.Unregister(f)
	used.Reset(5)
	if fresh := NewDir(5, 1024, 16); !reflect.DeepEqual(used, fresh) {
		t.Fatalf("reset directory %+v differs from a fresh one %+v", used, fresh)
	}
	// Same accesses on two clean domains, one through the recycled
	// directory and one through a fresh one.
	run := func(dir *Dir) []sim.Time {
		dom := NewDomain(8, 1024, DefaultParams(), testCosts())
		g := mem.NewFrame(9, 1024)
		dom.Register(g, dir)
		rng := rand.New(rand.NewSource(4))
		var costs []sim.Time
		for i := 0; i < 500; i++ {
			c, _ := dom.Access(rng.Intn(8), g, dir, rng.Intn(1024), rng.Intn(3) == 0)
			costs = append(costs, c)
		}
		return costs
	}
	if a, b := run(used), run(NewDir(5, 1024, 16)); !reflect.DeepEqual(a, b) {
		t.Fatal("a reset directory charges differently from a fresh one")
	}
}
