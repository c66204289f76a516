package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestComputeDiffEmpty(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	if d := ComputeDiff(twin, cur); len(d) != 0 {
		t.Fatalf("diff of identical pages has %d ranges", len(d))
	}
}

func TestComputeDiffCoalesces(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[10], cur[11], cur[12] = 1, 2, 3
	cur[40] = 9
	d := ComputeDiff(twin, cur)
	if len(d) != 2 {
		t.Fatalf("got %d ranges, want 2: %+v", len(d), d)
	}
	if d[0].Off != 10 || len(d[0].Data) != 3 {
		t.Fatalf("range 0 = %+v", d[0])
	}
	if d[1].Off != 40 || len(d[1].Data) != 1 {
		t.Fatalf("range 1 = %+v", d[1])
	}
	if d.Bytes(8) != 4+16 {
		t.Fatalf("Bytes(8) = %d, want 20", d.Bytes(8))
	}
}

// Property: applying the diff of (twin→cur) onto a copy of twin
// reconstructs cur exactly.
func TestDiffRoundTripProperty(t *testing.T) {
	f := func(seed int64, nmut uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, 256)
		rng.Read(twin)
		cur := append([]byte(nil), twin...)
		for i := 0; i < int(nmut); i++ {
			cur[rng.Intn(len(cur))] = byte(rng.Int())
		}
		home := append([]byte(nil), twin...)
		ComputeDiff(twin, cur).Apply(home)
		return bytes.Equal(home, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two writers mutating disjoint halves both land when their
// diffs merge into the home copy, in either order.
func TestDiffDisjointMergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]byte, 128)
		rng.Read(base)
		a := append([]byte(nil), base...)
		b := append([]byte(nil), base...)
		for i := 0; i < 10; i++ {
			a[rng.Intn(64)] = byte(rng.Int())    // writer A: first half
			b[64+rng.Intn(64)] = byte(rng.Int()) // writer B: second half
		}
		da := ComputeDiff(base, a)
		db := ComputeDiff(base, b)
		h1 := append([]byte(nil), base...)
		da.Apply(h1)
		db.Apply(h1)
		h2 := append([]byte(nil), base...)
		db.Apply(h2)
		da.Apply(h2)
		if !bytes.Equal(h1, h2) {
			return false
		}
		return bytes.Equal(h1[:64], a[:64]) && bytes.Equal(h1[64:], b[64:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// referenceDiff is the plain byte-at-a-time scan the word-wise
// ComputeDiff must match range-for-range (range structure feeds the
// protocol's message-size accounting, so equivalence is a determinism
// requirement, not just a data-correctness one).
func referenceDiff(twin, cur []byte) Diff {
	var d Diff
	i := 0
	for i < len(cur) {
		if twin[i] == cur[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(cur) && twin[j] != cur[j] {
			j++
		}
		data := make([]byte, j-i)
		copy(data, cur[i:j])
		d = append(d, DiffRange{Off: i, Data: data})
		i = j
	}
	return d
}

// Property: the word-wise scan produces ranges byte-identical to the
// reference byte scan, across page sizes that exercise word-boundary
// tails.
func TestComputeDiffMatchesReference(t *testing.T) {
	f := func(seed int64, nmut uint8, szSel uint8) bool {
		sizes := []int{1, 7, 8, 9, 15, 16, 63, 64, 256, 1024}
		size := sizes[int(szSel)%len(sizes)]
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, size)
		rng.Read(twin)
		cur := append([]byte(nil), twin...)
		for i := 0; i < int(nmut); i++ {
			cur[rng.Intn(size)] = byte(rng.Int())
		}
		got := ComputeDiff(twin, cur)
		want := referenceDiff(twin, cur)
		if len(got) != len(want) {
			return false
		}
		for k := range got {
			if got[k].Off != want[k].Off || !bytes.Equal(got[k].Data, want[k].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// A fully-rewritten page must come back as one whole-page range.
func TestComputeDiffDensePage(t *testing.T) {
	twin := make([]byte, 1024)
	cur := make([]byte, 1024)
	for i := range cur {
		cur[i] = byte(i) | 1
		twin[i] = byte(i) &^ 1
		if twin[i] == cur[i] {
			cur[i] ^= 0xFF
		}
	}
	d := ComputeDiff(twin, cur)
	if len(d) != 1 || d[0].Off != 0 || len(d[0].Data) != 1024 {
		t.Fatalf("dense diff = %d ranges, first %+v", len(d), d[0].Off)
	}
	if !bytes.Equal(d[0].Data, cur) {
		t.Fatal("dense diff data mismatch")
	}
}

func TestDiffSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ComputeDiff(make([]byte, 8), make([]byte, 16))
}

// TestComputeDiffOwnsStorage checks the throwaway form's ownership
// contract: the returned diff must survive later, different
// computations.
func TestComputeDiffOwnsStorage(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[3], cur[4] = 7, 8
	d := ComputeDiff(twin, cur)
	snap := ComputeDiff(twin, cur) // identical second copy for comparison

	// Compute conflicting contents.
	other := make([]byte, 64)
	for i := range other {
		other[i] = 0xAA
	}
	for i := 0; i < 8; i++ {
		ComputeDiff(twin, other)
	}

	if len(d) != len(snap) {
		t.Fatalf("diff changed shape after later computations: %+v", d)
	}
	for i := range d {
		if d[i].Off != snap[i].Off || !bytes.Equal(d[i].Data, snap[i].Data) {
			t.Fatalf("range %d corrupted by later computations: %+v want %+v", i, d[i], snap[i])
		}
	}
}
