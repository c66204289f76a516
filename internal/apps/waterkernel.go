package apps

import (
	"fmt"

	"mgs/internal/harness"
)

// WaterKernel is the force-interaction kernel of Water, the paper's
// §5.2.3 best-effort study (Figure 12). The plain variant behaves like
// Water's force phase: every processor scans the whole molecule array
// and updates both molecules of each pair under per-molecule locks. The
// tiled variant is the paper's hand transformation: the molecule array
// is split into two page-aligned tiles per SSMP, and computation
// proceeds in phases; in each phase a schedule assigns every tile to
// exactly one SSMP, so all sharing within a phase stays inside the SSMP
// (hardware coherence) and only phase boundaries cross SSMPs at page
// grain — perfect multigrain locality.
type WaterKernel struct {
	N     int
	Tiled bool

	waterMols
}

// Name implements harness.App.
func (w *WaterKernel) Name() string {
	if w.Tiled {
		return "water-kernel-tiled"
	}
	return "water-kernel"
}

// Setup allocates the molecule array with zeroed forces.
func (w *WaterKernel) Setup(m *harness.Machine) { w.setupMols(m, w.N) }

// Body dispatches on the variant. The plain variant is Water's force
// phase, unmodified.
func (w *WaterKernel) Body(c *harness.Ctx) {
	if w.Tiled {
		w.tiledBody(c)
	} else {
		lo, hi := blockRange(w.N, c.ID, c.NProcs)
		w.forcePhase(c, lo, hi)
	}
	c.Barrier(0)
}

// tiledBody: the loop transformation. Tiles are contiguous page-aligned
// molecule ranges, two per SSMP; a round-robin tournament pairs tiles
// so that each phase gives every SSMP exclusive access to its two
// tiles. All force updates are lock-free: a processor owns the rows it
// accumulates into.
func (w *WaterKernel) tiledBody(c *harness.Ctx) {
	cfg := c.Machine().Cfg
	nssmp := cfg.P / cfg.C
	tiles := 2 * nssmp
	if w.N%(16*nssmp) != 0 {
		panic(fmt.Sprintf("water-kernel: N=%d not divisible by 16*SSMPs=%d (tiles must be page aligned)", w.N, 16*nssmp))
	}
	tileSize := w.N / tiles
	ssmp := c.ID / cfg.C
	within := c.ID % cfg.C

	// Phase 0: self-interactions of this SSMP's own two tiles.
	for t := 0; t < 2; t++ {
		tile := 2*ssmp + t
		w.selfTile(c, tile, tileSize, within, cfg.C)
	}
	c.Barrier(0)

	// Tournament: phases of a round-robin schedule over the tiles; in
	// phase k this SSMP owns the pair (a, b).
	for k := 0; k < tiles-1; k++ {
		a, b := tournamentPair(tiles, k, ssmp)
		w.crossTiles(c, a, b, tileSize, within, cfg.C)
		c.Barrier(0)
	}
}

// tournamentPair returns the k-th round's tile pair for the given slot
// (SSMP) under the standard circle method.
func tournamentPair(tiles, k, slot int) (int, int) {
	m := tiles - 1 // tiles-1 rotating positions; tile `tiles-1` is fixed
	if slot == 0 {
		return (k) % m, tiles - 1
	}
	a := (k + slot) % m
	b := (k + m - slot) % m
	return a, b
}

// selfTile accumulates intra-tile interactions; rows split across the
// SSMP's processors, so every force word has one writer.
func (w *WaterKernel) selfTile(c *harness.Ctx, tile, tileSize, within, cprocs int) {
	base := tile * tileSize
	lo, hi := blockRange(tileSize, within, cprocs)
	for r := lo; r < hi; r++ {
		i := base + r
		pi := w.loadPos(c, i)
		var acc [3]float64
		for j := base; j < base+tileSize; j++ {
			if j == i {
				continue
			}
			f := pairForce(pi, w.loadPos(c, j))
			flop(c, 5000)
			for k := 0; k < 3; k++ {
				acc[k] += f[k]
			}
		}
		w.addForce(c, i, acc, 1)
	}
}

// crossTiles accumulates both directions of the (a, b) tile pair. Rows
// of a then rows of b are one combined work list split across the
// SSMP's processors.
func (w *WaterKernel) crossTiles(c *harness.Ctx, a, b, tileSize, within, cprocs int) {
	lo, hi := blockRange(2*tileSize, within, cprocs)
	for r := lo; r < hi; r++ {
		var i, oBase int
		if r < tileSize {
			i = a*tileSize + r
			oBase = b * tileSize
		} else {
			i = b*tileSize + (r - tileSize)
			oBase = a * tileSize
		}
		pi := w.loadPos(c, i)
		var acc [3]float64
		for j := oBase; j < oBase+tileSize; j++ {
			f := pairForce(pi, w.loadPos(c, j))
			flop(c, 5000)
			for k := 0; k < 3; k++ {
				acc[k] += f[k]
			}
		}
		w.addForce(c, i, acc, 1)
	}
}

// Verify checks every molecule's accumulated force against the host
// reference (tolerantly: fixed point rounds each added term).
func (w *WaterKernel) Verify(m *harness.Machine) error {
	n := w.N
	pos := make([][3]float64, n)
	for i := 0; i < n; i++ {
		pos[i], _ = initialMol(i)
	}
	for i := 0; i < n; i++ {
		var want [3]float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			f := pairForce(pos[i], pos[j])
			for k := 0; k < 3; k++ {
				want[k] += f[k]
			}
		}
		for k := 0; k < 3; k++ {
			if got := fromFx(m.GetI64(w.mol.At(i*molWords + 6 + k))); !approxEqual(got, want[k], 1e-9) {
				return fmt.Errorf("mol %d force[%d] = %g, want %g", i, k, got, want[k])
			}
		}
	}
	return nil
}
