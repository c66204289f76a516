package vm

import (
	"testing"
	"testing/quick"
)

func TestLayoutArithmetic(t *testing.T) {
	l := NewLayout(1024)
	if l.PageSize() != 1024 {
		t.Fatalf("PageSize = %d", l.PageSize())
	}
	cases := []struct {
		a    Addr
		page Page
		off  int
	}{
		{0, 0, 0}, {1023, 0, 1023}, {1024, 1, 0}, {5000, 4, 904},
	}
	for _, c := range cases {
		if got := l.PageOf(c.a); got != c.page {
			t.Errorf("PageOf(%d) = %d, want %d", c.a, got, c.page)
		}
		if got := l.Offset(c.a); got != c.off {
			t.Errorf("Offset(%d) = %d, want %d", c.a, got, c.off)
		}
	}
	if l.Base(4) != 4096 {
		t.Errorf("Base(4) = %d", l.Base(4))
	}
}

func TestLayoutRoundTripProperty(t *testing.T) {
	l := NewLayout(4096)
	f := func(a uint32) bool {
		addr := Addr(a)
		return l.Base(l.PageOf(addr))+Addr(l.Offset(addr)) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBadPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two page size")
		}
	}()
	NewLayout(1000)
}

func TestSpaceAllocAlignment(t *testing.T) {
	s := NewSpace(1024, 32)
	a := s.Alloc(56, 8)
	b := s.Alloc(56, 8)
	if a%8 != 0 || b%8 != 0 {
		t.Fatalf("unaligned: %d %d", a, b)
	}
	if b != a+56 {
		t.Fatalf("objects not packed: a=%d b=%d", a, b)
	}
	c := s.AllocPages(100)
	if s.Offset(c) != 0 {
		t.Fatalf("AllocPages not page aligned: %d", c)
	}
}

func TestSpaceAddressZeroUnused(t *testing.T) {
	s := NewSpace(1024, 4)
	if a := s.Alloc(8, 8); a == 0 {
		t.Fatal("allocator handed out address 0")
	}
}

func TestHomeProcInterleaves(t *testing.T) {
	s := NewSpace(1024, 8)
	for p := Page(0); p < 64; p++ {
		if got := s.HomeProc(p); got != int(p%8) {
			t.Fatalf("HomeProc(%d) = %d, want %d", p, got, p%8)
		}
	}
}

func TestTLBBasic(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1, Read)
	if pr, ok := tlb.Lookup(1); !ok || pr != Read {
		t.Fatalf("Lookup(1) = %v,%v", pr, ok)
	}
	if _, ok := tlb.Lookup(2); ok {
		t.Fatal("unexpected hit on page 2")
	}
	tlb.Insert(1, Write) // upgrade in place
	if pr, _ := tlb.Lookup(1); pr != Write {
		t.Fatalf("after upgrade, priv = %v", pr)
	}
	if tlb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tlb.Len())
	}
}

func TestTLBFIFOEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1, Read)
	tlb.Insert(2, Read)
	ev, did := tlb.Insert(3, Read)
	if !did || ev != 1 {
		t.Fatalf("evicted (%d,%v), want (1,true)", ev, did)
	}
	if _, ok := tlb.Lookup(1); ok {
		t.Fatal("page 1 should be evicted")
	}
	for _, p := range []Page{2, 3} {
		if _, ok := tlb.Lookup(p); !ok {
			t.Fatalf("page %d missing", p)
		}
	}
}

func TestTLBInvalidateThenEvict(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1, Read)
	tlb.Insert(2, Read)
	if !tlb.Invalidate(1) {
		t.Fatal("Invalidate(1) = false")
	}
	if tlb.Invalidate(1) {
		t.Fatal("double Invalidate(1) = true")
	}
	// Insert must skip the stale FIFO slot for page 1.
	ev, did := tlb.Insert(3, Read)
	if did {
		t.Fatalf("unexpected eviction of %d; room existed", ev)
	}
	ev, did = tlb.Insert(4, Read)
	if !did || ev != 2 {
		t.Fatalf("evicted (%d,%v), want (2,true)", ev, did)
	}
}

// TestTLBNeverExceedsCapacity drives random traffic.
func TestTLBNeverExceedsCapacity(t *testing.T) {
	f := func(ops []uint8) bool {
		tlb := NewTLB(4)
		for i, op := range ops {
			p := Page(op % 16)
			switch i % 3 {
			case 0:
				tlb.Insert(p, Read)
			case 1:
				tlb.Insert(p, Write)
			case 2:
				tlb.Invalidate(p)
			}
			if tlb.Len() > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refTLB is FuzzTLB's reference: the mappings as a map and the fills as
// a FIFO slice, whose entries for pages no longer mapped are dropped
// only when they reach its front.
type refTLB struct {
	cap              int
	m                map[Page]Priv
	fifo             []Page
	fills, evictions int64
}

func (r *refTLB) insert(p Page, pr Priv) (evicted Page, did bool) {
	r.fills++
	if _, ok := r.m[p]; ok {
		r.m[p] = pr
		return 0, false
	}
	for len(r.m) >= r.cap {
		old := r.fifo[0]
		r.fifo = r.fifo[1:]
		if _, ok := r.m[old]; ok {
			delete(r.m, old)
			evicted, did = old, true
			r.evictions++
		}
	}
	r.m[p] = pr
	r.fifo = append(r.fifo, p)
	return evicted, did
}

// FuzzTLB is the differential oracle for TLB: a byte script drives
// Lookup, Insert and Invalidate on a TLB and on refTLB, and every answer
// (Lookup's privilege, Insert's eviction, Invalidate's result) and Len,
// Fills and Evictions must agree after every step. The first byte sets
// the capacity (1–8); each later step is two bytes, the low two bits of
// the first the operation (lookup, fill Read, fill Write, invalidate),
// the second the page, 56–75, so the TLB's table crosses a chunk
// boundary. The seed corpus is testdata/fuzz/FuzzTLB; one seed
// invalidates a page, fills it again and evicts it through its stale
// FIFO entry.
func FuzzTLB(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		capacity := int(script[0]%8) + 1
		tlb := NewTLB(capacity)
		ref := &refTLB{cap: capacity, m: map[Page]Priv{}}
		for k := 1; k+1 < len(script); k += 2 {
			p := Page(56 + script[k+1]%20)
			switch op := script[k] & 3; op {
			case 0:
				pr, ok := tlb.Lookup(p)
				want, wantOK := ref.m[p]
				if pr != want || ok != wantOK {
					t.Fatalf("step %d: Lookup(%d) = %v,%v, reference %v,%v", k/2, p, pr, ok, want, wantOK)
				}
			case 1, 2:
				pr := Priv(op) // Read, Write
				ev, did := tlb.Insert(p, pr)
				wantEv, wantDid := ref.insert(p, pr)
				if ev != wantEv || did != wantDid {
					t.Fatalf("step %d: Insert(%d) evicted %d,%v, reference %d,%v", k/2, p, ev, did, wantEv, wantDid)
				}
			case 3:
				_, want := ref.m[p]
				delete(ref.m, p)
				if got := tlb.Invalidate(p); got != want {
					t.Fatalf("step %d: Invalidate(%d) = %v, reference %v", k/2, p, got, want)
				}
			}
			if tlb.Len() != len(ref.m) || tlb.Fills != ref.fills || tlb.Evictions != ref.evictions {
				t.Fatalf("step %d: Len %d Fills %d Evictions %d, reference %d %d %d",
					k/2, tlb.Len(), tlb.Fills, tlb.Evictions, len(ref.m), ref.fills, ref.evictions)
			}
		}
	})
}

func TestSetHomeOverridesInterleave(t *testing.T) {
	s := NewSpace(1024, 8)
	a := s.AllocPages(4096)
	p0 := s.PageOf(a)
	s.SetHome(p0, 5)
	s.SetHome(p0+1, 5) // same proc twice is fine
	if got := s.HomeProc(p0); got != 5 {
		t.Fatalf("HomeProc = %d, want 5", got)
	}
	if got := s.HomeProc(p0 + 2); got != int(uint64(p0+2)%8) {
		t.Fatalf("unplaced page home = %d, want interleaved", got)
	}
}

func TestSetHomeConflictPanics(t *testing.T) {
	s := NewSpace(1024, 8)
	s.SetHome(3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on conflicting placement")
		}
	}()
	s.SetHome(3, 2)
}

func TestPrivString(t *testing.T) {
	cases := map[Priv]string{None: "TLB_INV", Read: "TLB_READ", Write: "TLB_WRITE"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}

func TestBrkTracksAllocations(t *testing.T) {
	s := NewSpace(1024, 4)
	b0 := s.Brk()
	s.Alloc(100, 8)
	if s.Brk() < b0+100 {
		t.Fatalf("Brk did not advance: %#x -> %#x", b0, s.Brk())
	}
	s.AllocPages(1)
	if s.Brk()%1 != 0 || s.Brk() <= b0+100 {
		t.Fatalf("Brk after page alloc = %#x", s.Brk())
	}
}

func TestSetHomeSameProcIdempotent(t *testing.T) {
	s := NewSpace(1024, 8)
	s.SetHome(4, 1)
	s.SetHome(4, 1) // same placement twice is fine
	if got := s.HomeProc(4); got != 1 {
		t.Fatalf("home = %d", got)
	}
}

func TestAllocPanics(t *testing.T) {
	s := NewSpace(1024, 4)
	for _, tc := range []struct {
		name     string
		n, align int
	}{
		{"zero size", 0, 8},
		{"negative size", -1, 8},
		{"zero align", 8, 0},
		{"non-power-of-two align", 8, 12},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			s.Alloc(tc.n, tc.align)
		}()
	}
}

func TestNewTLBPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTLB(0) did not panic")
		}
	}()
	NewTLB(0)
}

func TestTLBInsertUpgradesPrivilegeInPlace(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1, Read)
	tlb.Insert(2, Read)
	if _, evicted := tlb.Insert(1, Write); evicted {
		t.Fatal("privilege upgrade evicted an entry")
	}
	if pr, ok := tlb.Lookup(1); !ok || pr != Write {
		t.Fatalf("entry 1 = %v/%v, want TLB_WRITE", pr, ok)
	}
	// Upgrade must not consume a fresh FIFO slot: inserting a third
	// page now evicts page 1 (the oldest), not page 2.
	if ev, did := tlb.Insert(3, Read); !did || ev != 1 {
		t.Fatalf("evicted %d/%v, want page 1", ev, did)
	}
}
