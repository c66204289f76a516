package vm

import (
	"runtime"
	"slices"
	"testing"
)

func TestPageMap(t *testing.T) {
	var m PageMap[int]
	if m.Get(3) != 0 {
		t.Fatal("Get on an empty map")
	}
	m.Put(7, 1)
	m.Put(3, 2)
	if m.Get(7) != 1 || m.Get(3) != 2 || m.Get(5) != 0 {
		t.Fatal("Get after Put wrong")
	}
	m.Put(7, 0)
	if m.Get(7) != 0 {
		t.Fatal("a zero Put did not delete")
	}
	m.Put(7, 0)     // absent: no change
	m.Put(1<<30, 0) // beyond the top level: nothing to delete

	// Chunk boundaries: pages 63 and 64 sit in adjacent chunks, 1<<20
	// far beyond them; Each walks in ascending page order across them.
	m.Put(1<<20, 3)
	m.Put(64, 1)
	m.Put(63, 2)
	m.Put(64, 4) // overwrite
	var order []Page
	var vals []int
	m.Each(func(p Page, v int) { order, vals = append(order, p), append(vals, v) })
	if want := []Page{3, 63, 64, 1 << 20}; !slices.Equal(order, want) || !slices.Equal(vals, []int{2, 2, 4, 3}) {
		t.Fatalf("Each visited %v with %v, want %v with [2 2 4 3]", order, vals, want)
	}

	// Every TLB and page-table lookup goes through Get: a hit, a hole
	// inside a chunk, a missing chunk and out of range all stay
	// allocation-free, and so do deletes.
	if allocs := testing.AllocsPerRun(100, func() {
		_, _, _, _ = m.Get(3), m.Get(5), m.Get(1<<19), m.Get(1<<30)
		m.Put(5, 0)
		m.Put(1<<30, 0)
	}); allocs != 0 {
		t.Errorf("PageMap.Get and zero Put allocated %.1f times per op, want 0", allocs)
	}

	// Storage follows the pages held, not the highest page number: one
	// value at page 1<<20 costs a top level of 1<<20/64 chunk pointers
	// and one chunk, where a flat slot array cost 8 MB. Every SSMP keeps
	// two page tables indexed by global page number, so this is the
	// per-SSMP cost of a large machine.
	var before, after runtime.MemStats
	var sparse PageMap[int]
	runtime.ReadMemStats(&before)
	sparse.Put(1<<20, 1)
	runtime.ReadMemStats(&after)
	if sparse.Get(1<<20) != 1 {
		t.Fatal("Get after a sparse Put wrong")
	}
	if kb := (after.TotalAlloc - before.TotalAlloc) >> 10; kb >= 256 {
		t.Errorf("one Put at page 1<<20 allocated %d KB, want < 256 KB", kb)
	}
}

// FuzzPageMap is the differential oracle for PageMap: a byte script of
// Puts drives two PageMap[uint8]s drawn from one PageStore, each beside
// a map[Page]uint8 reference. After every Put, Get of the page and its
// two neighbours must agree with the reference in both maps, so a chunk
// or index the store hands to both shows as a value in the wrong map;
// at the end Each must visit exactly each reference's pages, in
// ascending order, with their values. Each step is three bytes: the low
// two bits of the first are the value (0 deletes), its next bit moves
// the page from near 0 to near 1<<20, the bit after that picks the
// second map, and the other two bytes are the page's offset there, so
// scripts cross the 63/64 chunk boundary, grow a sparse index and
// interleave the two maps' carves. The seed corpus is
// testdata/fuzz/FuzzPageMap.
func FuzzPageMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		var store PageStore[uint8]
		maps := [2]PageMap[uint8]{store.Map(), store.Map()}
		refs := [2]map[Page]uint8{{}, {}}
		for k := 0; k+2 < len(script); k += 3 {
			v := script[k] & 3
			p := Page(script[k+1])<<8 | Page(script[k+2])
			if script[k]&4 != 0 {
				p += 1<<20 - 1<<15
			}
			w := script[k] >> 3 & 1
			maps[w].Put(p, v)
			if v == 0 {
				delete(refs[w], p)
			} else {
				refs[w][p] = v
			}
			for i := range maps {
				for _, q := range []Page{p - 1, p, p + 1} {
					if got := maps[i].Get(q); got != refs[i][q] {
						t.Fatalf("step %d (Put(%d, %d) into map %d): map %d Get(%d) = %d, reference %d",
							k/3, p, v, w, i, q, got, refs[i][q])
					}
				}
			}
		}
		for i := range maps {
			want := make([]Page, 0, len(refs[i]))
			for p := range refs[i] {
				want = append(want, p)
			}
			slices.Sort(want)
			var got []Page
			maps[i].Each(func(p Page, v uint8) {
				if v != refs[i][p] {
					t.Fatalf("map %d: Each(%d) = %d, reference %d", i, p, v, refs[i][p])
				}
				got = append(got, p)
			})
			if !slices.Equal(got, want) {
				t.Fatalf("map %d: Each visited %v, reference %v", i, got, want)
			}
		}
	})
}
