// Package apps implements the paper's application suite against the
// machine API: Jacobi, Matrix Multiply, TSP, Water, Barnes-Hut, and the
// Water force-interaction kernel in plain and hand-tiled forms (§5.2).
// Every application verifies its computed result against a host-side
// reference, so shared-memory protocol bugs surface as wrong answers,
// not just odd timings.
//
// Problem sizes are scaled down from the paper's (the substrate is a
// software simulator, not a 32-node Alewife); each app's default size
// is chosen to preserve the paper's sharing regime and is recorded in
// EXPERIMENTS.md.
package apps

import (
	"fmt"
	"math"

	"mgs/internal/harness"
	"mgs/internal/sim"
	"mgs/internal/vm"
)

// F64Array is a shared array of float64 in simulated memory.
type F64Array struct {
	Base vm.Addr
	N    int
}

// AllocF64 reserves a page-aligned shared float64 array.
func AllocF64(m *harness.Machine, n int) F64Array {
	return F64Array{Base: m.Alloc(n * 8), N: n}
}

// At returns the address of element i.
func (a F64Array) At(i int) vm.Addr { return a.Base + vm.Addr(i*8) }

// Load reads element i through the memory system.
func (a F64Array) Load(c *harness.Ctx, i int) float64 { return c.LoadF64(a.At(i)) }

// Store writes element i through the memory system.
func (a F64Array) Store(c *harness.Ctx, i int, v float64) { c.StoreF64(a.At(i), v) }

// Set initializes element i with no simulated cost (setup only).
func (a F64Array) Set(m *harness.Machine, i int, v float64) { m.SetF64(a.At(i), v) }

// Get reads element i with no simulated cost (verification only).
func (a F64Array) Get(m *harness.Machine, i int) float64 { return m.GetF64(a.At(i)) }

// Fill sets elements lo..hi-1 to f(i) with no simulated cost (setup
// only), a page at a time (harness.Machine.FillWords), so the range's
// pages are first touched in address order.
func (a F64Array) Fill(m *harness.Machine, lo, hi int, f func(i int) float64) {
	m.FillWords(a.At(lo), hi-lo, func(k int) uint64 { return math.Float64bits(f(lo + k)) })
}

// Visit calls f(i, v) for elements lo..hi-1 in order with no simulated
// cost (verification only) and returns f's first error.
func (a F64Array) Visit(m *harness.Machine, lo, hi int, f func(i int, v float64) error) error {
	return m.VisitWords(a.At(lo), hi-lo, func(k int, w uint64) error { return f(lo+k, math.Float64frombits(w)) })
}

// I64Array is a shared array of int64 in simulated memory.
type I64Array struct {
	Base vm.Addr
	N    int
}

// AllocI64 reserves a page-aligned shared int64 array.
func AllocI64(m *harness.Machine, n int) I64Array {
	return I64Array{Base: m.Alloc(n * 8), N: n}
}

// At returns the address of element i.
func (a I64Array) At(i int) vm.Addr { return a.Base + vm.Addr(i*8) }

// Load reads element i through the memory system.
func (a I64Array) Load(c *harness.Ctx, i int) int64 { return c.LoadI64(a.At(i)) }

// Store writes element i through the memory system.
func (a I64Array) Store(c *harness.Ctx, i int, v int64) { c.StoreI64(a.At(i), v) }

// Set initializes element i with no simulated cost.
func (a I64Array) Set(m *harness.Machine, i int, v int64) { m.SetI64(a.At(i), v) }

// Get reads element i with no simulated cost.
func (a I64Array) Get(m *harness.Machine, i int) int64 { return m.GetI64(a.At(i)) }

// Fill sets elements lo..hi-1 to f(i) with no simulated cost, as
// F64Array.Fill does.
func (a I64Array) Fill(m *harness.Machine, lo, hi int, f func(i int) int64) {
	m.FillWords(a.At(lo), hi-lo, func(k int) uint64 { return uint64(f(lo + k)) })
}

// Visit calls f(i, v) for elements lo..hi-1 in order with no simulated
// cost and returns f's first error.
func (a I64Array) Visit(m *harness.Machine, lo, hi int, f func(i int, v int64) error) error {
	return m.VisitWords(a.At(lo), hi-lo, func(k int, w uint64) error { return f(lo+k, int64(w)) })
}

// fillInTurn sets elements 0..n-1 of a to fa(i) and of b to fb(i), one
// page of each in turn: page k of a, then page k of b. Both arrays are
// page aligned, so their home pages are first touched in the order a
// word loop setting a[i] then b[i] touches them — the order that
// numbers their home frames (DESIGN §3.2).
func fillInTurn(m *harness.Machine, a, b F64Array, n int, fa, fb func(i int) float64) {
	per := m.Cfg.PageSize / 8
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		a.Fill(m, lo, hi, fa)
		b.Fill(m, lo, hi, fb)
	}
}

// blockRange splits [0, n) into nprocs contiguous blocks and returns
// processor id's half-open range.
func blockRange(n, id, nprocs int) (lo, hi int) {
	per := n / nprocs
	rem := n % nprocs
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return lo, hi
}

// blockOwner inverts blockRange: the processor whose block holds i, or
// 0 if i is outside [0, n). The first n mod nprocs blocks are one
// longer than the rest.
func blockOwner(i, n, nprocs int) int {
	if i < 0 || i >= n {
		return 0
	}
	per, rem := n/nprocs, n%nprocs
	if long := rem * (per + 1); i >= long {
		return rem + (i-long)/per
	}
	return i / (per + 1)
}

// flop charges the cost of n floating-point operations.
func flop(c *harness.Ctx, n int) { c.Compute(sim.Time(3 * n)) }

// approxEqual compares with relative tolerance (parallel reduction
// order perturbs floating point).
func approxEqual(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if bb := b; bb < 0 {
		m += -bb
	} else {
		m += bb
	}
	return d <= tol*(1+m)
}

// checkClose reports an error unless got ≈ want.
func checkClose(what string, got, want, tol float64) error {
	if !approxEqual(got, want, tol) {
		return fmt.Errorf("%s = %g, want %g", what, got, want)
	}
	return nil
}
