package apps

import (
	"fmt"

	"mgs/internal/harness"
)

// Jacobi is the paper's 2-D grid relaxation: long read/write phases over
// contiguous row blocks with sharing only at block boundaries — the
// coarse-grain pattern that runs well at any cluster size (Figure 6).
type Jacobi struct {
	N     int // grid side
	Iters int

	src, dst F64Array // double-buffered grids
}

// Name implements harness.App.
func (j *Jacobi) Name() string { return "jacobi" }

// Setup allocates both grids and initializes the boundary.
func (j *Jacobi) Setup(m *harness.Machine) {
	n := j.N
	// Distributed-array layout: each page lives in the memory of the
	// processor that owns its rows (Alewife compilers did the same),
	// so the steady-state flush traffic stays SSMP-local.
	homeOf := func(page int) int {
		switch row := page * m.Cfg.PageSize / 8 / n; {
		case row < 1:
			return 0
		case row > n-2:
			return m.Cfg.P - 1
		default: // interior row, updated by its block's owner
			return blockOwner(row-1, n-2, m.Cfg.P)
		}
	}
	words := n * n
	j.src = F64Array{Base: m.AllocHomed(words*8, homeOf), N: words}
	j.dst = F64Array{Base: m.AllocHomed(words*8, homeOf), N: words}
	edge := func(i int) float64 {
		if i < n {
			return 1.0 // hot top edge
		}
		return 0
	}
	fillInTurn(m, j.src, j.dst, words, edge, edge)
}

// Body relaxes the interior with a barrier per iteration.
func (j *Jacobi) Body(c *harness.Ctx) {
	n := j.N
	lo, hi := blockRange(n-2, c.ID, c.NProcs)
	lo, hi = lo+1, hi+1 // interior rows only
	src, dst := j.src, j.dst
	for it := 0; it < j.Iters; it++ {
		for i := lo; i < hi; i++ {
			for k := 1; k < n-1; k++ {
				v := 0.25 * (src.Load(c, (i-1)*n+k) + src.Load(c, (i+1)*n+k) +
					src.Load(c, i*n+k-1) + src.Load(c, i*n+k+1))
				flop(c, 4)
				dst.Store(c, i*n+k, v)
			}
		}
		c.Barrier(0)
		src, dst = dst, src
	}
}

// Verify recomputes the relaxation on the host and compares the full
// final grid. The reference updates one grid in place, row by row: old
// row i-1 and old row i are saved before they are overwritten, so every
// point sums the operands the double-buffered relaxation sums, in the
// same order, and the result is bit-identical.
func (j *Jacobi) Verify(m *harness.Machine) error {
	n := j.N
	buf := make([]float64, n*n+2*n)
	g, up, cur := buf[:n*n], buf[n*n:n*n+n], buf[n*n+n:]
	for k := 0; k < n; k++ {
		g[k] = 1
	}
	for it := 0; it < j.Iters; it++ {
		copy(up, g[:n])
		for i := 1; i < n-1; i++ {
			row, below := g[i*n:(i+1)*n], g[(i+1)*n:(i+2)*n]
			copy(cur, row)
			for k := 1; k < n-1; k++ {
				row[k] = 0.25 * (up[k] + below[k] + cur[k-1] + cur[k+1])
			}
			up, cur = cur, up
		}
	}
	final := j.src
	if j.Iters%2 == 1 {
		final = j.dst
	}
	return final.Visit(m, 0, n*n, func(w int, got float64) error {
		if want := g[w]; got != want {
			return fmt.Errorf("grid[%d,%d] = %g, want %g", w/n, w%n, got, want)
		}
		return nil
	})
}
