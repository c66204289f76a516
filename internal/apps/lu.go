package apps

import (
	"fmt"

	"mgs/internal/harness"
)

// LU is dense blocked LU factorization without pivoting, in the style
// of SPLASH-2's LU — an extension beyond the paper's five applications
// that exercises a sharing pattern none of them has: block ownership
// with step-by-step broadcast reads of pivot rows and columns. The
// matrix is diagonally dominant so factorization is stable without
// pivoting.
//
// Layout is block-major — each bxb block is contiguous and homed with
// its owner — and blocks are assigned to processors round-robin, the
// 2-D scatter decomposition collapsed to one dimension.
type LU struct {
	N int // matrix side
	B int // block side; N must be a multiple of B

	a  F64Array // block-major matrix
	nb int
}

// Name implements harness.App.
func (l *LU) Name() string { return "lu" }

// initial returns the deterministic, diagonally dominant input.
func (l *LU) initial(i, j int) float64 {
	v := float64((i*7+j*13)%19) - 9
	if i == j {
		v += float64(2 * l.N)
	}
	return v
}

// blockBase returns the word index of block (bi, bj).
func (l *LU) blockBase(bi, bj int) int {
	return (bi*l.nb + bj) * l.B * l.B
}

// at returns the word index of element (i, j) in block-major layout.
func (l *LU) at(i, j int) int {
	return l.blockBase(i/l.B, j/l.B) + (i%l.B)*l.B + (j % l.B)
}

// owner returns the processor owning block (bi, bj).
func (l *LU) owner(bi, bj, nprocs int) int { return (bi*l.nb + bj) % nprocs }

// Setup allocates the block-major matrix, homing each block's pages at
// its owner.
func (l *LU) Setup(m *harness.Machine) {
	if l.N%l.B != 0 {
		panic("lu: N must be a multiple of B")
	}
	l.nb = l.N / l.B
	words := l.N * l.N
	blockWords := l.B * l.B
	wordsPerPage := m.Cfg.PageSize / 8
	l.a = F64Array{
		Base: m.AllocHomed(words*8, func(page int) int {
			blk := page * wordsPerPage / blockWords
			return l.owner(blk/l.nb, blk%l.nb, m.Cfg.P)
		}),
		N: words,
	}
	for i := 0; i < l.N; i++ {
		for j := 0; j < l.N; j++ {
			l.a.Set(m, l.at(i, j), l.initial(i, j))
		}
	}
}

// Body runs the blocked right-looking factorization: for each step k,
// the diagonal block factorizes, the perimeter updates, and the
// interior applies the rank-B update, with barriers between stages.
func (l *LU) Body(c *harness.Ctx) {
	b, nb := l.B, l.nb
	for k := 0; k < nb; k++ {
		// Stage 1: factorize the diagonal block A[k][k] (owner only).
		if l.owner(k, k, c.NProcs) == c.ID {
			base := l.blockBase(k, k)
			for d := 0; d < b; d++ {
				pivot := l.a.Load(c, base+d*b+d)
				for r := d + 1; r < b; r++ {
					mult := l.a.Load(c, base+r*b+d) / pivot
					flop(c, 4)
					l.a.Store(c, base+r*b+d, mult)
					for cc := d + 1; cc < b; cc++ {
						v := l.a.Load(c, base+r*b+cc) - mult*l.a.Load(c, base+d*b+cc)
						flop(c, 2)
						l.a.Store(c, base+r*b+cc, v)
					}
				}
			}
		}
		c.Barrier(0)

		// Stage 2: perimeter. Column blocks A[i][k] solve against the
		// upper factor of A[k][k]; row blocks A[k][j] against the
		// lower factor.
		dbase := l.blockBase(k, k)
		for i := k + 1; i < nb; i++ {
			if l.owner(i, k, c.NProcs) == c.ID {
				base := l.blockBase(i, k)
				for d := 0; d < b; d++ {
					pivot := l.a.Load(c, dbase+d*b+d)
					for r := 0; r < b; r++ {
						mult := l.a.Load(c, base+r*b+d) / pivot
						flop(c, 4)
						for cc := d + 1; cc < b; cc++ {
							v := l.a.Load(c, base+r*b+cc) - mult*l.a.Load(c, dbase+d*b+cc)
							flop(c, 2)
							l.a.Store(c, base+r*b+cc, v)
						}
						l.a.Store(c, base+r*b+d, mult)
					}
				}
			}
		}
		for j := k + 1; j < nb; j++ {
			if l.owner(k, j, c.NProcs) == c.ID {
				base := l.blockBase(k, j)
				for d := 0; d < b; d++ {
					for r := d + 1; r < b; r++ {
						mult := l.a.Load(c, dbase+r*b+d)
						for cc := 0; cc < b; cc++ {
							v := l.a.Load(c, base+r*b+cc) - mult*l.a.Load(c, base+d*b+cc)
							flop(c, 2)
							l.a.Store(c, base+r*b+cc, v)
						}
					}
				}
			}
		}
		c.Barrier(1)

		// Stage 3: interior rank-B update A[i][j] -= A[i][k] · A[k][j].
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				if l.owner(i, j, c.NProcs) != c.ID {
					continue
				}
				base := l.blockBase(i, j)
				lbase := l.blockBase(i, k)
				ubase := l.blockBase(k, j)
				for r := 0; r < b; r++ {
					for d := 0; d < b; d++ {
						mult := l.a.Load(c, lbase+r*b+d)
						for cc := 0; cc < b; cc++ {
							v := l.a.Load(c, base+r*b+cc) - mult*l.a.Load(c, ubase+d*b+cc)
							flop(c, 2)
							l.a.Store(c, base+r*b+cc, v)
						}
					}
				}
			}
		}
		c.Barrier(2)
	}
}

// Verify recomputes the factorization on the host with the identical
// blocked algorithm and compares every element.
func (l *LU) Verify(m *harness.Machine) error {
	n, b, nb := l.N, l.B, l.nb
	a := make([]float64, n*n)
	idx := func(i, j int) int { return l.at(i, j) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[idx(i, j)] = l.initial(i, j)
		}
	}
	bb := func(bi, bj int) int { return l.blockBase(bi, bj) }
	for k := 0; k < nb; k++ {
		dbase := bb(k, k)
		for d := 0; d < b; d++ {
			for r := d + 1; r < b; r++ {
				mult := a[dbase+r*b+d] / a[dbase+d*b+d]
				a[dbase+r*b+d] = mult
				for cc := d + 1; cc < b; cc++ {
					a[dbase+r*b+cc] -= mult * a[dbase+d*b+cc]
				}
			}
		}
		for i := k + 1; i < nb; i++ {
			base := bb(i, k)
			for d := 0; d < b; d++ {
				for r := 0; r < b; r++ {
					mult := a[base+r*b+d] / a[dbase+d*b+d]
					for cc := d + 1; cc < b; cc++ {
						a[base+r*b+cc] -= mult * a[dbase+d*b+cc]
					}
					a[base+r*b+d] = mult
				}
			}
		}
		for j := k + 1; j < nb; j++ {
			base := bb(k, j)
			for d := 0; d < b; d++ {
				for r := d + 1; r < b; r++ {
					mult := a[dbase+r*b+d]
					for cc := 0; cc < b; cc++ {
						a[base+r*b+cc] -= mult * a[base+d*b+cc]
					}
				}
			}
		}
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				base, lbase, ubase := bb(i, j), bb(i, k), bb(k, j)
				for r := 0; r < b; r++ {
					for d := 0; d < b; d++ {
						mult := a[lbase+r*b+d]
						for cc := 0; cc < b; cc++ {
							a[base+r*b+cc] -= mult * a[ubase+d*b+cc]
						}
					}
				}
			}
		}
	}
	// Compare in storage order, a page at a time: block (bi, bj) is
	// contiguous, row r of it after r rows of b words.
	return l.a.Visit(m, 0, n*n, func(w int, got float64) error {
		if want := a[w]; !approxEqual(got, want, 1e-9) {
			blk, in := w/(b*b), w%(b*b)
			i, j := blk/nb*b+in/b, blk%nb*b+in%b
			return fmt.Errorf("A[%d,%d] = %g, want %g", i, j, got, want)
		}
		return nil
	})
}
