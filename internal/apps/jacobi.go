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
// final grid, row by row as Visit reaches it. The reference is a
// wavefront (jacobiRows) holding three rows per iteration rather than
// a grid: host memory O(Iters·N), not O(N²).
func (j *Jacobi) Verify(m *harness.Machine) error {
	n := j.N
	final := j.src
	if j.Iters%2 == 1 {
		final = j.dst
	}
	rows := newJacobiRows(n, j.Iters)
	var want []float64
	k := n // column of the next word
	return final.Visit(m, 0, n*n, func(w int, got float64) error {
		if k == n {
			want, k = rows.next(), 0
		}
		if got != want[k] {
			return fmt.Errorf("grid[%d,%d] = %g, want %g", w/n, k, got, want[k])
		}
		k++
		return nil
	})
}

// jacobiRows yields the rows of the relaxed grid in order, computing
// each iteration's row i from the previous iteration's rows i-1, i and
// i+1 with Body's four operands in Body's order, so every point is
// bit-identical to the double-buffered relaxation's. Level t (the grid
// after t iterations) keeps its last three rows, row r in ring[t][r%3];
// step s computes row s+iters-t of every level t, lowest level first,
// so each row's three inputs are the level below's newest row, made in
// the same step, and the two before it.
type jacobiRows struct {
	n, iters int
	step     int // the step advance runs next: it makes the final grid's row step
	ring     [][3][]float64
}

func newJacobiRows(n, iters int) *jacobiRows {
	buf := make([]float64, 3*(iters+1)*n)
	r := &jacobiRows{n: n, iters: iters, step: -iters, ring: make([][3][]float64, iters+1)}
	for t := range r.ring {
		for k := range r.ring[t] {
			r.ring[t][k], buf = buf[:n:n], buf[n:]
		}
	}
	for r.step < 0 {
		r.advance()
	}
	return r
}

// next returns the final grid's next row, valid until the next call.
func (r *jacobiRows) next() []float64 {
	i := r.step
	r.advance()
	return r.ring[r.iters][i%3]
}

// advance computes, on every level, the row step s reaches.
func (r *jacobiRows) advance() {
	n, s := r.n, r.step
	r.step++
	for t := range r.ring {
		i := s + r.iters - t
		if i < 0 || i >= n {
			continue
		}
		row := r.ring[t][i%3]
		if t == 0 || i == 0 || i == n-1 { // Setup's values, which Body never writes
			v := 0.0
			if i == 0 {
				v = 1 // hot top edge
			}
			for k := range row {
				row[k] = v
			}
			continue
		}
		up, cur, below := r.ring[t-1][(i-1)%3], r.ring[t-1][i%3], r.ring[t-1][(i+1)%3]
		for k := 1; k < n-1; k++ {
			row[k] = 0.25 * (up[k] + below[k] + cur[k-1] + cur[k+1])
		}
		row[0], row[n-1] = 0, 0
	}
}
