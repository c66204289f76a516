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
	dir := d.NewDir(0)
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
	dir := d.NewDir(0)
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
	dir1 := d.NewDir(0)
	dir2 := d.NewDir(0)
	d.Register(f1, dir1)
	d.Register(f2, dir2)
	d.Access(0, f1, dir1, 0, true) // dirty in proc 0
	d.Access(0, f2, dir2, 0, true) // conflicts: evicts f1 line 0
	if st := d.cachedState(0, f1, 0); st != Inv {
		t.Fatalf("evicted line state = %v, want Inv", st)
	}
	if dir1.owner[0] != -1 {
		t.Fatalf("directory owner after eviction = %d, want -1", dir1.owner[0])
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
	for li := range dir.owner {
		if s := d.sharersOf(dir, uint64(li)); s != 0 || dir.owner[li] != -1 {
			t.Fatalf("dir line %d not reset after clean: sharers %b, owner %d", li, s, dir.owner[li])
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
		dirs[i] = d.NewDir(i % nprocs)
		d.Register(frames[i], dirs[i])
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 20000; step++ {
		p := rng.Intn(nprocs)
		fi := rng.Intn(nframes)
		off := rng.Intn(256/16) * 16
		d.Access(p, frames[fi], dirs[fi], off, rng.Intn(2) == 0)

		for i := 0; i < nframes; i++ {
			for li, owner := range dirs[i].owner {
				sharers := d.sharersOf(dirs[i], uint64(li))
				if owner >= 0 && sharers != 0 {
					t.Fatalf("step %d: frame %d line %d has owner %d and sharers %b", step, i, li, owner, sharers)
				}
				if owner >= 0 {
					if st := d.cachedState(int(owner), frames[i], li*16); st != Modified {
						t.Fatalf("step %d: owner %d does not hold Modified copy (%v)", step, owner, st)
					}
				}
				for s := sharers; s != 0; s &= s - 1 {
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

// A processor's cache takes host memory a chunk at a time, on the first
// fill of one of the chunk's slots. One that never accessed holds
// nothing: it reports Inv, and cleaning a page or dropping a line it
// never held leaves it owning no chunk, without carving one as a side
// effect. One that touched one line owns exactly that line's chunk.
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
	for p, want := range []int{1, 1, 0, 0} {
		if n := ownedChunks(d, p); n != want {
			t.Errorf("processor %d owns %d chunks, want %d", p, n, want)
		}
	}
}

// Hit finds a line wherever its chunk lies: in the first chunk, either
// side of a chunk edge and in the last chunk of a 64 KB cache. A read
// of a filled line hits, a write of a Shared one does not until the
// upgrade, and neither probe counts anything when it fails.
func TestHitSeesEveryFilledLine(t *testing.T) {
	d := NewDomain(2, 1024, DefaultParams(), testCosts())
	var frames []*mem.Frame
	for _, id := range []uint64{0, 63} { // lines 0-63 and 4032-4095: slots 0-63 and 4032-4095
		f := mem.NewFrame(id, 1024)
		d.Register(f, d.NewDir(0))
		frames = append(frames, f)
	}
	for _, f := range frames {
		for _, off := range []int{0, 15 * 16, 16 * 16, 1008} {
			if d.Hit(1, f, off, false) {
				t.Fatalf("frame %d off %d: Hit before any fill", f.ID, off)
			}
			d.Access(1, f, d.dirOf(f.ID), off, false)
			if !d.Hit(1, f, off, false) || d.Hit(1, f, off, true) {
				t.Fatalf("frame %d off %d: after a read fill, read hit %v and write hit %v; want true, false",
					f.ID, off, d.Hit(1, f, off, false), d.Hit(1, f, off, true))
			}
			d.Access(1, f, d.dirOf(f.ID), off, true)
			if !d.Hit(1, f, off, true) || d.Hit(0, f, off, false) {
				t.Fatalf("frame %d off %d: after the upgrade, owner write hit %v and other processor's read hit %v; want true, false",
					f.ID, off, d.Hit(1, f, off, true), d.Hit(0, f, off, false))
			}
		}
	}
	if hits, n := d.Counters.ByKind[Hit], int64(2*len(frames)*4); hits != n {
		t.Fatalf("%d hits counted, want %d: one per successful probe", hits, n)
	}
}

// ownedChunks counts the chunks processor p has been carved.
func ownedChunks(d *Domain, p int) int {
	n := 0
	for _, c := range d.chunks[p<<d.chunkShift : (p+1)<<d.chunkShift] {
		if c != &d.store.none {
			n++
		}
	}
	return n
}

// A directory recycled with Reset — the protocol hands a torn-down
// copy's directory to the next copy its SSMP maps — must be
// indistinguishable from a fresh carve of the same width, whatever
// sharers and owners it held: equal as a value, and charging the same
// costs for the same accesses.
func TestResetDirIsAFreshDir(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, f, used := newTestDomain(8)
	for i := 0; i < 2000; i++ {
		d.Access(rng.Intn(8), f, used, rng.Intn(1024), rng.Intn(3) == 0)
	}
	d.Unregister(f)
	used.Reset(5)
	fresh := func() *Dir { return NewDomain(8, 1024, DefaultParams(), testCosts()).NewDir(5) }
	if fresh := fresh(); !reflect.DeepEqual(used, fresh) {
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
	if a, b := run(used), run(fresh()); !reflect.DeepEqual(a, b) {
		t.Fatal("a reset directory charges differently from a fresh one")
	}
}

// A hit, and a miss whose fill evicts a line of another frame of the
// domain's own region, allocate nothing once the processor's line array
// exists: the evicted line's directory comes from the frame registry,
// not a map.
func TestAccessZeroAllocs(t *testing.T) {
	params := Params{LineSize: 16, CacheBytes: 64, HWPointers: 5} // 4-line cache
	const base = 3 << mem.RegionBits
	d := NewDomainAt(base, 2, 64, params, testCosts())
	f1, f2 := mem.NewFrame(base, 64), mem.NewFrame(base+1, 64) // same slots
	dir1, dir2 := d.NewDir(0), d.NewDir(0)
	d.Register(f1, dir1)
	d.Register(f2, dir2)
	d.Access(0, f1, dir1, 0, false)
	if n := testing.AllocsPerRun(100, func() { d.Access(0, f1, dir1, 0, false) }); n != 0 {
		t.Errorf("hit: %v allocs, want 0", n)
	}
	var kinds [2]MissKind
	if n := testing.AllocsPerRun(100, func() {
		_, kinds[0] = d.Access(0, f2, dir2, 0, true)
		_, kinds[1] = d.Access(0, f1, dir1, 0, true)
	}); n != 0 {
		t.Errorf("evicting miss: %v allocs, want 0", n)
	}
	if kinds != [2]MissKind{LocalMiss, LocalMiss} || dir2.owner[0] != -1 {
		t.Fatalf("alternating conflicting writes: kinds %v, evicted owner %d; want two local misses, owner -1",
			kinds, dir2.owner[0])
	}
}

// TestDirWidth pins the width of a domain's sharer sets: the words a
// directory of a 1 KB page of 16-byte lines is carved with, and which
// processors get a sharer bit. Every processor reads three lines, the
// first, second and last of the page, on a directory of the domain's
// width and on the widest one NewDir builds; both must hold the same
// sets, each with a bit for every processor below 64 and none above.
// Past 64 processors the sets stay 64 bits and a processor past 63 gets
// no bit, as before the sets were packed: processor 100's copy stays
// unknown to the directory, so a write by another processor does not
// invalidate it. Widening the sets is meant to change this table.
func TestDirWidth(t *testing.T) {
	for _, tc := range []struct{ nprocs, words int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {8, 8}, {32, 32}, {64, 64}, {65, 64}, {128, 64},
	} {
		var store Store
		d := store.Domain(0, tc.nprocs, 1024, DefaultParams(), testCosts())
		packed, wide := d.NewDir(0), NewDir(0, 1024, 16)
		if len(packed.sharers) != tc.words || store.DirWords() != int64(tc.words) {
			t.Errorf("C = %d: a directory of %d sharer words (store counts %d), want %d",
				tc.nprocs, len(packed.sharers), store.DirWords(), tc.words)
		}
		f, g := mem.NewFrame(1, 1024), mem.NewFrame(2, 1024)
		d.Register(f, packed)
		d.Register(g, wide)
		var want uint64
		for p := range tc.nprocs {
			for _, li := range []int{0, 1, 63} {
				d.Access(p, f, packed, li*16, false)
				d.Access(p, g, wide, li*16, false)
			}
			want |= 1 << uint(p)
		}
		for li := range uint64(64) {
			w := want
			if li != 0 && li != 1 && li != 63 {
				w = 0
			}
			if got, wgot := d.sharersOf(packed, li), d.sharersOf(wide, li); got != w || wgot != w {
				t.Errorf("C = %d: line %d sharers %#x packed, %#x widest; want %#x", tc.nprocs, li, got, wgot, w)
			}
		}
		if tc.nprocs > 100 {
			d.Access(100, f, packed, 2*16, false)
			d.Access(0, f, packed, 2*16, true)
			if s, st := d.sharersOf(packed, 2), d.cachedState(100, f, 2*16); s != 0 || st != Shared {
				t.Errorf("C = %d: after processor 100 reads line 2 and processor 0 writes it, sharers %#x and processor 100 %v; want 0 and shared",
					tc.nprocs, s, st)
			}
		}
	}
}

// Register refuses a directory whose sharer words are too few for the
// domain's width, naming both sizes.
func TestRegisterRejectsNarrowDir(t *testing.T) {
	narrow := NewDomain(2, 1024, DefaultParams(), testCosts()).NewDir(0)
	d := NewDomain(4, 1024, DefaultParams(), testCosts())
	defer func() {
		want := "cache: a directory of 2 sharer words registered on a domain whose 4-bit sets need 4"
		if r := recover(); r != want {
			t.Errorf("Register panic = %v, want %q", r, want)
		}
	}()
	d.Register(mem.NewFrame(0, 1024), narrow)
}

// NewDomain finds slots and lines by masking, so it refuses the
// dimensions harness.Config.Validate refuses, with the same text.
func TestNewDomainRejectsUnmaskableGeometry(t *testing.T) {
	for _, tc := range []struct {
		pageSize int
		params   Params
	}{
		{1024, Params{LineSize: 24, CacheBytes: 64 << 10, HWPointers: 5}},
		{1024, Params{LineSize: 16, CacheBytes: 48 << 10, HWPointers: 5}},
		{1024, Params{LineSize: 16, CacheBytes: 8, HWPointers: 5}},
		{1024, Params{LineSize: 16, CacheBytes: 64 << 10, HWPointers: 0}},
		{1000, DefaultParams()},
		{8, DefaultParams()},
	} {
		err := tc.params.Validate(tc.pageSize)
		if err == nil {
			t.Errorf("Validate(%d) of %+v = nil, want an error", tc.pageSize, tc.params)
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != "cache: "+err.Error() {
					t.Errorf("NewDomain panic = %v, want %q", r, "cache: "+err.Error())
				}
			}()
			NewDomain(4, tc.pageSize, tc.params, testCosts())
		}()
	}
	if err := DefaultParams().Validate(1024); err != nil {
		t.Errorf("the default geometry is rejected: %v", err)
	}
}

// FuzzDomain runs one byte-decoded script against Domain and the
// reference model below and requires identical results after every
// step: the (cost, kind) of each access, the cost of each CleanPage,
// every processor's state for every line of every frame, the counters,
// and every directory entry. The first three bytes choose the shape —
// processor count (up to 130, past the 64-bit sharer sets), line,
// cache and page sizes (caches of one to eight lines, so fills conflict
// constantly; with the first byte's top bit set, 16 to 128 lines, one
// to eight chunks, so a processor's accesses fill some chunks and not
// others), hardware pointers, the domain's own region, and which of
// the six frames come from a foreign region. Then each three-byte step
// is an access by any processor to any byte of any frame (every other
// one made as core.System.Access makes it, Access only when Hit says
// no), a CleanPage,
// an Unregister, or an Unregister and re-Register of the same frame ID
// with its directory Reset to a new home — a recycled frame. Directories
// are carved by Domain.NewDir, their sharer sets packed at the domain's
// width, so the packing is checked against the reference's one set per
// line.
func FuzzDomain(f *testing.F) {
	const maxFuzzSteps = 200 // longer scripts only slow the fuzzer down
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 3 {
			return
		}
		script = script[:min(len(script), 3+3*maxFuzzSteps)]
		nprocs := []int{1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 65, 130}[int(script[0]&0x7f)%12]
		geom := script[1]
		line := 16 << (geom & 1)
		pageSize := line << (geom >> 1 & 3)
		cacheLines := 1 << (geom>>3&3 + script[0]>>7*chunkBits)
		params := Params{LineSize: line, CacheBytes: line * cacheLines, HWPointers: 1 + int(geom>>5)}
		region := uint64(script[2] & 3)
		d := NewDomainAt(region<<mem.RegionBits, nprocs, pageSize, params, testCosts())
		ref := newRefDomain(nprocs, pageSize, params, testCosts())

		const nframes = 6
		var frames [nframes]*mem.Frame
		var dirs [nframes]*Dir
		var refDirs [nframes]*refDir
		for i := range frames {
			id := region<<mem.RegionBits + uint64(i)
			if script[2]>>2&(1<<i) != 0 {
				id = (region+1+uint64(i%3))%5<<mem.RegionBits + uint64(i)
			}
			frames[i] = mem.NewFrame(id, pageSize)
			dirs[i], refDirs[i] = d.NewDir(i%nprocs), newRefDir(i%nprocs, pageSize, line)
			d.Register(frames[i], dirs[i])
			ref.Register(frames[i], refDirs[i])
		}

		for k := 3; k+2 < len(script); k += 3 {
			op, a, b := script[k], int(script[k+1]), int(script[k+2])
			fi := int(op>>3) % nframes
			fr := frames[fi]
			switch op & 7 {
			case 0, 1, 2, 3, 4:
				write := op&4 != 0
				c, kind := d.costs.Hit, Hit
				if k/3%2 == 0 || !d.Hit(a%nprocs, fr, b%pageSize, write) {
					c, kind = d.Access(a%nprocs, fr, dirs[fi], b%pageSize, write)
				}
				rc, rkind := ref.Access(a%nprocs, fr, refDirs[fi], b%pageSize, write)
				if c != rc || kind != rkind {
					t.Fatalf("step %d: proc %d frame %#x off %d write=%v: (%d, %v), reference (%d, %v)",
						k/3, a%nprocs, fr.ID, b%pageSize, write, c, kind, rc, rkind)
				}
			case 5:
				if c, rc := d.CleanPage(fr, dirs[fi]), ref.CleanPage(fr, refDirs[fi]); c != rc {
					t.Fatalf("step %d: CleanPage of frame %#x costs %d, reference %d", k/3, fr.ID, c, rc)
				}
			case 6:
				d.Unregister(fr)
				ref.Unregister(fr)
				dirs[fi].Reset(a % nprocs)
				refDirs[fi].Reset(a % nprocs)
				d.Register(fr, dirs[fi])
				ref.Register(fr, refDirs[fi])
			case 7:
				d.Unregister(fr)
				ref.Unregister(fr)
			}

			if d.Counters != ref.Counters {
				t.Fatalf("step %d: counters %v, reference %v", k/3, d.Counters, ref.Counters)
			}
			for i, fr := range frames {
				if !refDirs[i].equal(d, dirs[i]) {
					t.Fatalf("step %d: frame %#x directory %+v, reference %+v", k/3, fr.ID, *dirs[i], *refDirs[i])
				}
				for p := range nprocs {
					for off := 0; off < pageSize; off += line {
						if st, rst := d.cachedState(p, fr, off), ref.cachedState(p, fr, off); st != rst {
							t.Fatalf("step %d: proc %d frame %#x off %d is %v, reference %v", k/3, p, fr.ID, off, st, rst)
						}
					}
				}
			}
		}
	})
}

// The reference model: Domain as it was before its host layout was
// rebuilt — separate tag and state arrays, a modulo per slot and per
// line, a map from every frame ID to its directory, and a directory of
// one 16-byte entry per line — kept verbatim apart from its names.
// FuzzDomain requires the two to agree on every charge, class, line
// state, counter and directory entry.

// refEntry is the directory state for one cache line of one frame.
type refEntry struct {
	sharers uint64 // bitmask of within-SSMP processor indexes, clean copies
	owner   int8   // within-SSMP index holding Modified copy, or -1
}

// refDir is the directory for one frame mapped in one SSMP.
type refDir struct {
	HomeNode int
	entries  []refEntry
}

func newRefDir(homeNode, pageSize, lineSize int) *refDir {
	d := &refDir{entries: make([]refEntry, pageSize/lineSize)}
	d.Reset(homeNode)
	return d
}

// Reset returns d to the state newRefDir builds.
func (d *refDir) Reset(homeNode int) {
	d.HomeNode = homeNode
	for i := range d.entries {
		d.entries[i] = refEntry{owner: -1}
	}
}

// equal reports whether dir, carved for dom, holds the reference's home
// and, line by line, its sharers and owner.
func (d *refDir) equal(dom *Domain, dir *Dir) bool {
	if dir.HomeNode != d.HomeNode || len(dir.sharers) != dom.dirWords() || len(dir.owner) != len(d.entries) {
		return false
	}
	for li, e := range d.entries {
		if dom.sharersOf(dir, uint64(li)) != e.sharers || int(dir.owner[li]) != int(e.owner) {
			return false
		}
	}
	return true
}

// refCache is one processor's direct-mapped cache (tags + state only).
// Both arrays are nil until the processor's first Access: zeroing 36 KB
// per processor up front is most of what building a machine costs, and
// a processor that is never recorded as a sharer or owner is never
// looked at.
type refCache struct {
	tags  []uint64 // line address + 1; 0 means empty
	state []LineState
}

// refDomain is the hardware coherence domain of one SSMP.
type refDomain struct {
	params    Params
	costs     Costs
	pageSize  int
	lineShift uint
	nlines    int // lines per cache
	linesPage int // lines per page
	caches    []refCache
	frames    map[uint64]*refDir // frame ID -> directory, for exact eviction
	Counters  Counters
}

// newRefDomain builds a coherence domain for nprocs processors and pages of
// pageSize bytes.
func newRefDomain(nprocs, pageSize int, params Params, costs Costs) *refDomain {
	lineShift := uint(0)
	for 1<<lineShift < params.LineSize {
		lineShift++
	}
	return &refDomain{
		params:    params,
		costs:     costs,
		pageSize:  pageSize,
		lineShift: lineShift,
		nlines:    params.CacheBytes / params.LineSize,
		linesPage: pageSize / params.LineSize,
		caches:    make([]refCache, nprocs),
		frames:    make(map[uint64]*refDir),
	}
}

// Register attaches a frame's directory so evictions and cleaning can
// find it. Call when the SSMP maps a page onto the frame.
func (d *refDomain) Register(f *mem.Frame, dir *refDir) { d.frames[f.ID] = dir }

// Unregister detaches a frame (page invalidated and frame freed).
func (d *refDomain) Unregister(f *mem.Frame) { delete(d.frames, f.ID) }

// lineAddr computes the global line address of offset off in frame f.
func (d *refDomain) lineAddr(f *mem.Frame, off int) uint64 {
	return (f.ID*uint64(d.pageSize) + uint64(off)) >> d.lineShift
}

// Access simulates processor `local` (within-SSMP index) touching byte
// offset off of frame f, whose directory is dir. It returns the latency
// to charge and the access class. State in the caches and directory is
// updated to reflect the access.
func (d *refDomain) Access(local int, f *mem.Frame, dir *refDir, off int, write bool) (sim.Time, MissKind) {
	la := d.lineAddr(f, off)
	li := (off >> d.lineShift) % d.linesPage
	e := &dir.entries[li]
	c := &d.caches[local]
	if c.tags == nil {
		c.tags = make([]uint64, d.nlines)
		c.state = make([]LineState, d.nlines)
	}
	slot := int(la % uint64(d.nlines))
	hit := c.tags[slot] == la+1

	if hit {
		if !write || c.state[slot] == Modified {
			d.Counters.ByKind[Hit]++
			return d.costs.Hit, Hit
		}
		// Write to a Shared line: upgrade, invalidating peers.
		cost := d.upgrade(local, la, e, dir.HomeNode)
		c.state[slot] = Modified
		e.sharers = 0
		e.owner = int8(local)
		d.Counters.ByKind[Upgrade]++
		return cost, Upgrade
	}

	// Miss: classify before mutating state.
	kind := d.classify(local, e, dir.HomeNode)
	cost := d.missCost(kind)

	// Pull the dirty copy back / downgrade or invalidate as needed.
	if e.owner >= 0 && int(e.owner) != local {
		d.dropLine(int(e.owner), la, !write) // read: downgrade to Shared
		if !write {
			e.sharers |= 1 << uint(e.owner)
		}
		e.owner = -1
	}
	if write {
		// Invalidate all other sharers.
		for s := e.sharers; s != 0; s &= s - 1 {
			p := trailingZeros(s)
			if p != local {
				d.dropLine(p, la, false)
			}
		}
		e.sharers = 0
		e.owner = int8(local)
	} else {
		e.sharers |= 1 << uint(local)
	}

	// Install in the local cache, evicting any conflicting line.
	d.evict(local, slot)
	c.tags[slot] = la + 1
	if write {
		c.state[slot] = Modified
	} else {
		c.state[slot] = Shared
	}
	d.Counters.ByKind[kind]++
	return cost, kind
}

// classify picks the access class for a miss by processor local on
// directory entry e with the frame's memory at homeNode.
func (d *refDomain) classify(local int, e *refEntry, homeNode int) MissKind {
	if e.owner >= 0 {
		switch {
		case int(e.owner) == homeNode || local == homeNode:
			return TwoParty
		default:
			return ThreeParty
		}
	}
	if popcount(e.sharers) >= d.params.HWPointers {
		return SoftwareDir
	}
	if local == homeNode {
		return LocalMiss
	}
	return RemoteCleanMiss
}

func (d *refDomain) missCost(k MissKind) sim.Time {
	switch k {
	case LocalMiss:
		return d.costs.Local
	case RemoteCleanMiss:
		return d.costs.Remote
	case TwoParty:
		return d.costs.TwoParty
	case ThreeParty:
		return d.costs.ThreeParty
	case SoftwareDir:
		return d.costs.Software
	}
	return d.costs.Hit
}

// upgrade computes the cost of invalidating the other sharers of a line
// on a write hit to a Shared copy, and drops their copies.
func (d *refDomain) upgrade(local int, la uint64, e *refEntry, homeNode int) sim.Time {
	others := e.sharers &^ (1 << uint(local))
	if others == 0 {
		if local == homeNode {
			return d.costs.Local
		}
		return d.costs.Remote
	}
	third := false
	for s := others; s != 0; s &= s - 1 {
		p := trailingZeros(s)
		d.dropLine(p, la, false)
		if p != homeNode && p != local {
			third = true
		}
	}
	if popcount(others) >= d.params.HWPointers {
		return d.costs.Software
	}
	if third {
		return d.costs.ThreeParty
	}
	return d.costs.TwoParty
}

// dropLine removes (or downgrades) line la from processor p's cache.
func (d *refDomain) dropLine(p int, la uint64, downgrade bool) {
	c := &d.caches[p]
	slot := int(la % uint64(d.nlines))
	if c.tags == nil || c.tags[slot] != la+1 {
		return // never cached here, or already evicted
	}
	if downgrade {
		c.state[slot] = Shared
	} else {
		c.tags[slot] = 0
		c.state[slot] = Inv
	}
}

// evict clears whatever line occupies slot in processor p's cache,
// updating its directory so state stays exact.
func (d *refDomain) evict(p, slot int) {
	c := &d.caches[p]
	old := c.tags[slot]
	if old == 0 {
		return
	}
	la := old - 1
	c.tags[slot] = 0
	st := c.state[slot]
	c.state[slot] = Inv
	frameID := la >> uint64(log2(d.linesPage))
	dir, ok := d.frames[frameID]
	if !ok {
		return // frame already unregistered
	}
	li := int(la % uint64(d.linesPage))
	e := &dir.entries[li]
	if st == Modified && int(e.owner) == p {
		e.owner = -1
	}
	e.sharers &^= 1 << uint(p)
}

// CleanPage invalidates every line of the frame from every cache in the
// domain (the paper's page-cleaning loop: prefetch, store, flush each
// line), returning the cycles the cleaning processor spends. After
// CleanPage the frame's data is globally coherent and safe to DMA.
func (d *refDomain) CleanPage(f *mem.Frame, dir *refDir) sim.Time {
	for li := range dir.entries {
		e := &dir.entries[li]
		la := d.lineAddr(f, li<<d.lineShift)
		if e.owner >= 0 {
			d.dropLine(int(e.owner), la, false)
			e.owner = -1
		}
		for s := e.sharers; s != 0; s &= s - 1 {
			d.dropLine(trailingZeros(s), la, false)
		}
		e.sharers = 0
	}
	return sim.Time(d.linesPage) * d.costs.CleanPerLine
}

// cachedState reports processor p's state for offset off of frame f
// (test hook).
func (d *refDomain) cachedState(p int, f *mem.Frame, off int) LineState {
	la := d.lineAddr(f, off)
	c := &d.caches[p]
	slot := int(la % uint64(d.nlines))
	if c.tags == nil || c.tags[slot] != la+1 {
		return Inv
	}
	return c.state[slot]
}

func log2(x int) uint {
	n := uint(0)
	for 1<<n < x {
		n++
	}
	return n
}
