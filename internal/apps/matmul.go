package apps

import (
	"fmt"

	"mgs/internal/harness"
)

// MatMul multiplies two square matrices, each processor producing a
// block of result rows. Inputs are read-shared, outputs disjoint — the
// embarrassingly coarse-grain pattern of Figure 7 (≈0% breakup
// penalty, flat curve).
type MatMul struct {
	N int

	a, b, c F64Array
}

// Name implements harness.App.
func (mm *MatMul) Name() string { return "matmul" }

// Setup allocates and fills A and B deterministically.
func (mm *MatMul) Setup(m *harness.Machine) {
	n := mm.N
	// A and C pages live with the processor owning those rows; B is
	// read by everyone and stays interleaved across all memories.
	homeOf := func(page int) int {
		return blockOwner(page*m.Cfg.PageSize/8/n, n, m.Cfg.P)
	}
	words := n * n
	mm.a = F64Array{Base: m.AllocHomed(words*8, homeOf), N: words}
	mm.b = AllocF64(m, words)
	mm.c = F64Array{Base: m.AllocHomed(words*8, homeOf), N: words}
	fillInTurn(m, mm.a, mm.b, words,
		func(i int) float64 { return float64(i%7) - 3 },
		func(i int) float64 { return float64(i%5) - 2 })
}

// Body computes C = A×B by row blocks.
func (mm *MatMul) Body(c *harness.Ctx) {
	n := mm.N
	lo, hi := blockRange(n, c.ID, c.NProcs)
	for i := lo; i < hi; i++ {
		for k := 0; k < n; k++ {
			sum := 0.0
			for x := 0; x < n; x++ {
				sum += mm.a.Load(c, i*n+x) * mm.b.Load(c, x*n+k)
			}
			flop(c, 48*n)
			mm.c.Store(c, i*n+k, sum)
		}
	}
	c.Barrier(0)
}

// Verify recomputes the product on the host.
func (mm *MatMul) Verify(m *harness.Machine) error {
	n := mm.N
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := 0; i < n*n; i++ {
		a[i] = float64(i%7) - 3
		b[i] = float64(i%5) - 2
	}
	return mm.c.Visit(m, 0, n*n, func(w int, got float64) error {
		i, k := w/n, w%n
		sum := 0.0
		for x := 0; x < n; x++ {
			sum += a[i*n+x] * b[x*n+k]
		}
		if got != sum {
			return fmt.Errorf("C[%d,%d] = %g, want %g", i, k, got, sum)
		}
		return nil
	})
}
