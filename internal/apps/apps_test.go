package apps

import (
	"math"
	"testing"

	"mgs/internal/harness"
)

// smallCfg returns a quick machine for app correctness tests.
func smallCfg(p, c int) harness.Config {
	return harness.NewConfig(p, c, harness.WithInterSSMPDelay(400))
}

// runShapes runs the app across several machine shapes (uniprocessor,
// all-software, mixed, all-hardware) and fails on any verification
// error.
func runShapes(t *testing.T, mk func() harness.App) {
	t.Helper()
	shapes := []struct{ p, c int }{{1, 1}, {4, 1}, {4, 2}, {8, 4}, {8, 8}}
	for _, sh := range shapes {
		res, err := harness.RunApp(mk(), smallCfg(sh.p, sh.c))
		if err != nil {
			t.Fatalf("P=%d C=%d: %v", sh.p, sh.c, err)
		}
		if res.Cycles <= 0 {
			t.Fatalf("P=%d C=%d: non-positive runtime", sh.p, sh.c)
		}
	}
}

func TestJacobiAllShapes(t *testing.T) {
	runShapes(t, func() harness.App { return &Jacobi{N: 32, Iters: 3} })
}

// jacobiGrid is Jacobi's full-grid host reference, the one Verify used
// before the wavefront: it relaxes one n×n grid in place, row by row,
// saving old rows i-1 and i before they are overwritten, so each point
// sums Body's operands in Body's order.
func jacobiGrid(n, iters int) []float64 {
	buf := make([]float64, n*n+2*n)
	g, up, cur := buf[:n*n], buf[n*n:n*n+n], buf[n*n+n:]
	for k := 0; k < n; k++ {
		g[k] = 1
	}
	for it := 0; it < iters; it++ {
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
	return g
}

// The wavefront Verify checks against yields, row by row, exactly the
// full-grid reference's bits, including the boundary rows and columns,
// at grids of one interior row up and at zero to seven iterations.
func TestJacobiRowsMatchFullGrid(t *testing.T) {
	for _, n := range []int{3, 4, 34, 130} {
		for _, iters := range []int{0, 1, 2, 7} {
			g, rows := jacobiGrid(n, iters), newJacobiRows(n, iters)
			for i := range n {
				row := rows.next()
				for k, v := range row {
					if want := g[i*n+k]; math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("N=%d Iters=%d: row %d col %d = %v, full grid %v", n, iters, i, k, v, want)
					}
				}
			}
		}
	}
}

func TestMatMulAllShapes(t *testing.T) {
	runShapes(t, func() harness.App { return &MatMul{N: 20} })
}

func TestJacobiDeterministic(t *testing.T) {
	run := func() int64 {
		res, err := harness.RunApp(&Jacobi{N: 24, Iters: 2}, smallCfg(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Cycles)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

// TestJacobiSpeedsUpWithProcs: parallel hardware config must beat the
// uniprocessor.
func TestJacobiSpeedsUpWithProcs(t *testing.T) {
	seq, err := harness.RunApp(&Jacobi{N: 48, Iters: 2}, smallCfg(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := harness.RunApp(&Jacobi{N: 48, Iters: 2}, smallCfg(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if par.Cycles*2 >= seq.Cycles {
		t.Fatalf("8-proc run (%d) not at least 2x faster than seq (%d)", par.Cycles, seq.Cycles)
	}
}

func TestTSPAllShapes(t *testing.T) {
	runShapes(t, func() harness.App { return &TSP{NCities: 7, Depth: 3} })
}

func TestTSPNineCities(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := harness.RunApp(&TSP{NCities: 9, Depth: 4}, smallCfg(8, 2)); err != nil {
		t.Fatal(err)
	}
}

// bruteForceTour is the reference optimalTour is checked against: the
// cheapest of every tour from city 0, enumerated.
func bruteForceTour(t *TSP) int64 {
	n := t.NCities
	perm := make([]int, 0, n)
	visited := make([]bool, n)
	best := int64(1) << 62
	var rec func(last int, cost int64)
	rec = func(last int, cost int64) {
		if len(perm) == n-1 {
			if total := cost + t.Dist(last, 0); total < best {
				best = total
			}
			return
		}
		for city := 1; city < n; city++ {
			if visited[city] {
				continue
			}
			visited[city] = true
			perm = append(perm, city)
			rec(city, cost+t.Dist(last, city))
			perm = perm[:len(perm)-1]
			visited[city] = false
		}
	}
	rec(0, 0)
	return best
}

// TestTSPOptimalTourMatchesEnumeration: the Held-Karp optimum Verify
// checks against equals the enumerated optimum at every size the
// benchmark and the figures run, and Verify accepts exactly that cost.
func TestTSPOptimalTourMatchesEnumeration(t *testing.T) {
	for n := 1; n <= 10; n++ {
		tsp := &TSP{NCities: n, Depth: 2}
		want := bruteForceTour(tsp)
		if got := tsp.optimalTour(); got != want {
			t.Errorf("NCities=%d: Held-Karp optimum %d, enumeration %d", n, got, want)
		}
		m := harness.NewMachine(smallCfg(2, 1))
		tsp.Setup(m)
		for _, best := range []int64{want - 1, want, want + 1} {
			m.SetI64(tsp.best, best)
			if err := tsp.Verify(m); (err == nil) != (best == want) {
				t.Errorf("NCities=%d: Verify with best tour %d (optimum %d) = %v", n, best, want, err)
			}
		}
	}
}

func TestWaterAllShapes(t *testing.T) {
	runShapes(t, func() harness.App { return &Water{N: 16, Iters: 2} })
}

func TestBarnesHutAllShapes(t *testing.T) {
	runShapes(t, func() harness.App { return &BarnesHut{NBodies: 24, Iters: 2, Theta: 0.6} })
}

func TestWaterKernelPlainAllShapes(t *testing.T) {
	runShapes(t, func() harness.App { return &WaterKernel{N: 64, Tiled: false} })
}

func TestWaterKernelTiledAllShapes(t *testing.T) {
	// N must be a multiple of 16 × SSMPs for page-aligned tiles.
	shapes := []struct{ p, c int }{{4, 1}, {4, 2}, {8, 4}, {8, 8}}
	for _, sh := range shapes {
		if _, err := harness.RunApp(&WaterKernel{N: 64, Tiled: true}, smallCfg(sh.p, sh.c)); err != nil {
			t.Fatalf("P=%d C=%d: %v", sh.p, sh.c, err)
		}
	}
}

// TestWaterKernelTiledBeatsPlainAtSmallClusters reproduces the essence
// of Figure 12: at small cluster sizes the tiled kernel must beat the
// plain kernel decisively.
func TestWaterKernelTiledBeatsPlain(t *testing.T) {
	plain, err := harness.RunApp(&WaterKernel{N: 64, Tiled: false}, smallCfg(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := harness.RunApp(&WaterKernel{N: 64, Tiled: true}, smallCfg(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if tiled.Cycles*2 > plain.Cycles {
		t.Fatalf("tiled (%d) not at least 2x faster than plain (%d) at C=2", tiled.Cycles, plain.Cycles)
	}
}

// TestWaterShapeMatrix sweeps Water — historically the best protocol
// bug-finder in this repository — across a dense shape matrix.
func TestWaterShapeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range []int{4, 8, 16} {
		for c := 1; c <= p; c *= 2 {
			if _, err := harness.RunApp(&Water{N: 24, Iters: 2}, smallCfg(p, c)); err != nil {
				t.Errorf("P=%d C=%d: %v", p, c, err)
			}
		}
	}
}

// TestWaterKernelShapeMatrix does the same for the plain kernel.
func TestWaterKernelShapeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range []int{8, 16} {
		for c := 1; c <= p; c *= 2 {
			if _, err := harness.RunApp(&WaterKernel{N: 48, Tiled: false}, smallCfg(p, c)); err != nil {
				t.Errorf("P=%d C=%d: %v", p, c, err)
			}
		}
	}
}

func TestLUAllShapes(t *testing.T) {
	runShapes(t, func() harness.App { return &LU{N: 32, B: 8} })
}

func TestLUDefaultSize(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := harness.RunApp(&LU{N: 128, B: 16}, smallCfg(16, 4)); err != nil {
		t.Fatal(err)
	}
}

// TestBlockOwnerInvertsBlockRange: blockOwner names the block every
// index falls in, and 0 for an index outside [0, n).
func TestBlockOwnerInvertsBlockRange(t *testing.T) {
	for nprocs := 1; nprocs <= 70; nprocs++ {
		for n := 0; n <= 300; n++ {
			for id := 0; id < nprocs; id++ {
				lo, hi := blockRange(n, id, nprocs)
				for i := lo; i < hi; i++ {
					if got := blockOwner(i, n, nprocs); got != id {
						t.Fatalf("blockOwner(%d, %d, %d) = %d, want %d", i, n, nprocs, got, id)
					}
				}
			}
			for _, i := range []int{-1, n, n + 1} {
				if got := blockOwner(i, n, nprocs); got != 0 {
					t.Fatalf("blockOwner(%d, %d, %d) = %d, want 0 out of range", i, n, nprocs, got)
				}
			}
		}
	}
}
