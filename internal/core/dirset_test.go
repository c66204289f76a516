package core

import (
	"runtime"
	"slices"
	"testing"

	"mgs/internal/sim"
	"mgs/internal/vm"
)

// has is the membership query the tests ask; the Server itself only
// ever needs isOnly, empty and the target list.
func (d dirSet) has(r int) bool {
	_, ok := d.find(r)
	return ok
}

func TestDirSetExactOps(t *testing.T) {
	var d dirSet
	if !d.empty() {
		t.Fatal("zero dirSet not empty")
	}
	d.add(5)
	d.add(2)
	d.add(5) // duplicate
	if d.empty() || len(d) != 2 {
		t.Fatalf("after adds: %v", d)
	}
	if got := d.mask64(); got != 1<<5|1<<2 {
		t.Fatalf("mask64 = %b, want %b", got, uint64(1<<5|1<<2))
	}
	if !d.has(5) || d.has(3) {
		t.Fatal("exact membership wrong")
	}
	if d.isOnly(5) {
		t.Fatal("isOnly true with two members")
	}
	d.remove(2)
	if !d.isOnly(5) {
		t.Fatal("isOnly false after remove")
	}
	d.clear()
	if !d.empty() || d.mask64() != 0 {
		t.Fatal("clear did not empty the set")
	}
}

// FuzzDirSet is the differential oracle for dirSet: a byte script
// drives add/remove/clear on a read and a write directory alongside
// map[int]bool references, and after every step each query the Server
// makes — has, empty, isOnly, the mask64 projection (ids folded mod
// 64), and appendTargets' ascending union minus the excluded SSMP — must
// agree with the answer computed from the maps. Each step is two
// bytes: the low three bits of the first pick the operation and set,
// its next two bits and the second byte the SSMP id (0..1023). The seed
// corpus is testdata/fuzz/FuzzDirSet.
func FuzzDirSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		var sets [2]dirSet
		refs := [2]map[int]bool{{}, {}}
		for k := 0; k+1 < len(script); k += 2 {
			op, which := script[k]&7>>1, int(script[k]&1)
			r := int(script[k]>>3&3)<<8 | int(script[k+1])
			switch op {
			case 0:
				sets[which].add(r)
				refs[which][r] = true
			case 1:
				sets[which].remove(r)
				delete(refs[which], r)
			case 2:
				sets[which].clear()
				refs[which] = map[int]bool{}
			}
			for w, d := range sets {
				ref := refs[w]
				var mask uint64
				for id := range ref {
					mask |= 1 << (uint(id) & 63)
				}
				if d.has(r) != ref[r] || d.has(r+1) != ref[r+1] {
					t.Fatalf("step %d set %d: has(%d)=%v has(%d)=%v, reference %v", k/2, w, r, d.has(r), r+1, d.has(r+1), ref)
				}
				if d.empty() != (len(ref) == 0) || d.isOnly(r) != (len(ref) == 1 && ref[r]) || d.mask64() != mask {
					t.Fatalf("step %d set %d: empty=%v isOnly(%d)=%v mask64=%b, reference %v", k/2, w, d.empty(), r, d.isOnly(r), d.mask64(), ref)
				}
			}
			for _, exclude := range []int{-1, r} {
				var want []int
				for id := 0; id < 1024; id++ {
					if id != exclude && (refs[0][id] || refs[1][id]) {
						want = append(want, id)
					}
				}
				if got := appendTargets(nil, sets[0], sets[1], exclude); !slices.Equal(got, want) {
					t.Fatalf("step %d: appendTargets(exclude %d) = %v, want %v", k/2, exclude, got, want)
				}
			}
		}
	})
}

func TestPageArena(t *testing.T) {
	var a pageArena[int]
	if a.get(3) != nil {
		t.Fatal("get on empty arena")
	}
	x, y := 1, 2
	a.put(7, &x)
	a.put(3, &y)
	if a.get(7) != &x || a.get(3) != &y || a.get(5) != nil {
		t.Fatal("get after put wrong")
	}
	var order []vm.Page
	a.each(func(v vm.Page, p *int) { order = append(order, v) })
	if len(order) != 2 || order[0] != 3 || order[1] != 7 {
		t.Fatalf("each order = %v, want [3 7]", order)
	}
	a.del(7)
	if a.get(7) != nil || a.n != 1 {
		t.Fatal("del did not remove")
	}
	a.del(7) // absent: no change
	a.del(1 << 30)
	if a.n != 1 {
		t.Fatalf("del of an absent page changed n to %d", a.n)
	}

	// Chunk boundaries: pages 63 and 64 sit in adjacent chunks, 1<<20
	// far beyond them; each walks in ascending page order across them.
	z := 3
	a.put(1<<20, &z)
	a.put(64, &x)
	a.put(63, &y)
	order = order[:0]
	a.each(func(v vm.Page, p *int) { order = append(order, v) })
	if want := []vm.Page{3, 63, 64, 1 << 20}; !slices.Equal(order, want) || a.n != 4 {
		t.Fatalf("each order = %v (n %d), want %v (n 4)", order, a.n, want)
	}
	a.put(64, &z) // overwrite: not a new record
	if a.get(64) != &z || a.n != 4 {
		t.Fatalf("overwrite: get(64) wrong or n = %d, want 4", a.n)
	}

	// Every directory lookup goes through get: a hit, a hole inside a
	// chunk, a missing chunk and out of range all stay allocation-free.
	if allocs := testing.AllocsPerRun(100, func() {
		_, _, _, _ = a.get(3), a.get(5), a.get(1<<19), a.get(1<<30)
	}); allocs != 0 {
		t.Errorf("pageArena.get allocated %.1f times per op, want 0", allocs)
	}

	// Storage follows the pages held, not the highest page number: one
	// record at page 1<<20 costs a top level of 1<<20/64 chunk pointers
	// and one chunk, where a flat slot array cost 8 MB. Every SSMP keeps
	// two arenas indexed by global page number, so this is the per-SSMP
	// cost of a large machine.
	var before, after runtime.MemStats
	var sparse pageArena[int]
	runtime.ReadMemStats(&before)
	sparse.put(1<<20, &x)
	runtime.ReadMemStats(&after)
	if sparse.get(1<<20) != &x || sparse.n != 1 {
		t.Fatal("get after a sparse put wrong")
	}
	if kb := (after.TotalAlloc - before.TotalAlloc) >> 10; kb >= 256 {
		t.Errorf("one put at page 1<<20 allocated %d KB, want < 256 KB", kb)
	}
}

// TestDirectoryStatsSparse checks the home-side scaling claim: copy
// records exist only for SSMPs actually served, not one per SSMP.
func TestDirectoryStatsSparse(t *testing.T) {
	tm := buildTest(16, 2, 500, nil) // 8 SSMPs
	va := tm.sys.Space().AllocPages(1024)
	tm.bodies[2] = func(p *sim.Proc) { // SSMP 1 only
		store64(tm.sys, p, va, 9)
		tm.sys.ReleaseAll(p)
	}
	tm.run(t)
	ds := tm.sys.DirectoryStats()
	if ds.Pages != 1 {
		t.Fatalf("Pages = %d, want 1", ds.Pages)
	}
	if ds.RmtEntries != 1 {
		t.Fatalf("RmtEntries = %d, want 1 (one SSMP served; old dense layout would hold 8)", ds.RmtEntries)
	}
	if ds.Bytes <= 0 {
		t.Fatalf("Bytes = %d", ds.Bytes)
	}
}
