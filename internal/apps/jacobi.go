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
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			v := 0.0
			if i == 0 {
				v = 1.0 // hot top edge
			}
			j.src.Set(m, i*n+k, v)
			j.dst.Set(m, i*n+k, v)
		}
	}
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
// final grid.
func (j *Jacobi) Verify(m *harness.Machine) error {
	n := j.N
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := 0; i < n; i++ {
		if i == 0 {
			for k := 0; k < n; k++ {
				a[k], b[k] = 1, 1
			}
		}
	}
	for it := 0; it < j.Iters; it++ {
		for i := 1; i < n-1; i++ {
			for k := 1; k < n-1; k++ {
				b[i*n+k] = 0.25 * (a[(i-1)*n+k] + a[(i+1)*n+k] + a[i*n+k-1] + a[i*n+k+1])
			}
		}
		a, b = b, a
	}
	final := j.src
	if j.Iters%2 == 1 {
		final = j.dst
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if got, want := final.Get(m, i*n+k), a[i*n+k]; got != want {
				return fmt.Errorf("grid[%d,%d] = %g, want %g", i, k, got, want)
			}
		}
	}
	return nil
}
