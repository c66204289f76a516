package apps

import (
	"fmt"
	"math"

	"mgs/internal/harness"
	"mgs/internal/vm"
)

// Water is the SPLASH-style N-body molecular dynamics code (§5.2,
// Figure 9): a global molecule array distributed across processors,
// O(N²) pairwise force interactions guarded by per-molecule locks, and
// a global statistics record whose home processor sees extra traffic.
// Processors scan the molecule array linearly starting from their own
// portion, so neighbours in the same SSMP share at fine grain — the
// multigrain-friendly pattern that gives Water its 67% potential.
type Water struct {
	N     int // molecules
	Iters int

	waterMols
	kin vm.Addr // global kinetic-energy accumulator
}

// waterMols is the molecule array Water and WaterKernel share: N ×
// molWords words (pos 0-2, vel 3-5, force 6-8; forces in fixed point).
type waterMols struct {
	mol F64Array
}

const molWords = 16 // 128 bytes per molecule: 8 per 1K page

const (
	waterStatsLock = 0
	waterLockBase  = 1 // molecule i's lock is waterLockBase + i
)

const waterDT = 1e-3

// waterFxScale converts between float forces/energies and the int64
// fixed-point representation used for every shared reduction. Integer
// addition is associative and commutative, so the force and energy sums
// come out byte-identical no matter which order the per-molecule locks
// grant in — the property the chaos suite (internal/exp/chaos.go) pins:
// message faults may reorder lock handoffs, but final memory must match
// a fault-free run exactly. 2^40 keeps ~1e-12 resolution while the
// largest force sum stays far below the int64 range.
const waterFxScale = 1 << 40

func toFx(v float64) int64   { return int64(math.Round(v * waterFxScale)) }
func fromFx(v int64) float64 { return float64(v) / waterFxScale }

// Name implements harness.App.
func (w *Water) Name() string { return "water" }

// initialMol returns molecule i's deterministic initial position and
// velocity.
func initialMol(i int) (pos, vel [3]float64) {
	for d := 0; d < 3; d++ {
		pos[d] = float64((i*7+d*13)%29) / 29.0 * 4.0
		vel[d] = float64((i*11+d*17)%23-11) / 230.0
	}
	return pos, vel
}

// Setup allocates and initializes the molecule array and statistics.
func (w *Water) Setup(m *harness.Machine) {
	w.setupMols(m, w.N)
	w.kin = m.Alloc(8)
	m.SetI64(w.kin, 0) // fixed-point accumulator
}

// pairForce is the interaction kernel (softened inverse-cube pull
// toward the origin-relative displacement).
func pairForce(pi, pj [3]float64) [3]float64 {
	var d [3]float64
	r2 := 0.0
	for k := 0; k < 3; k++ {
		d[k] = pi[k] - pj[k]
		r2 += d[k] * d[k]
	}
	inv := 1.0 / (r2*math.Sqrt(r2) + 0.1)
	var f [3]float64
	for k := 0; k < 3; k++ {
		f[k] = d[k] * inv
	}
	return f
}

// setupMols allocates n molecules at their initial state with zeroed
// forces. The global molecule array is distributed among processors
// (paper §5.2.1): each block of molecules — and its per-molecule locks
// — lives with its owner.
func (w *waterMols) setupMols(m *harness.Machine, n int) {
	molPerPage := m.Cfg.PageSize / (molWords * 8)
	w.mol = F64Array{
		Base: m.AllocHomed(n*molWords*8, func(page int) int { return blockOwner(page*molPerPage, n, m.Cfg.P) }),
		N:    n * molWords,
	}
	for i := 0; i < n; i++ {
		m.Sync.LockHomed(waterLockBase+i, blockOwner(i, n, m.Cfg.P))
	}
	var pos, vel [3]float64
	w.mol.Fill(m, 0, n*molWords, func(k int) float64 {
		switch d := k % molWords; {
		case d == 0:
			pos, vel = initialMol(k / molWords)
			return pos[0]
		case d < 3:
			return pos[d]
		case d < 6:
			return vel[d-3]
		}
		return 0 // forces and padding
	})
}

func (w *waterMols) loadPos(c *harness.Ctx, i int) [3]float64 {
	return [3]float64{
		w.mol.Load(c, i*molWords),
		w.mol.Load(c, i*molWords+1),
		w.mol.Load(c, i*molWords+2),
	}
}

// addForce adds sign·f to molecule i's force words, which hold
// fixed point (toFx): integer sums do not depend on the order the
// per-molecule locks grant in, so final memory is a function of the
// inputs alone, as the chaos memory comparisons require.
func (w *waterMols) addForce(c *harness.Ctx, i int, f [3]float64, sign int64) {
	for k := 0; k < 3; k++ {
		a := w.mol.At(i*molWords + 6 + k)
		c.StoreI64(a, c.LoadI64(a)+sign*toFx(f[k]))
	}
}

// forcePhase is Water's force phase for molecules [lo, hi): each
// against every higher-numbered one, both sides' forces updated under
// the per-molecule locks.
func (w *waterMols) forcePhase(c *harness.Ctx, lo, hi int) {
	n := w.mol.N / molWords
	for i := lo; i < hi; i++ {
		pi := w.loadPos(c, i)
		for j := i + 1; j < n; j++ {
			pj := w.loadPos(c, j)
			f := pairForce(pi, pj)
			flop(c, 5000)
			c.Acquire(waterLockBase + i)
			w.addForce(c, i, f, 1)
			c.Release(waterLockBase + i)
			c.Acquire(waterLockBase + j)
			w.addForce(c, j, f, -1)
			c.Release(waterLockBase + j)
		}
	}
}

// Body runs the predictor / force / corrector phases per iteration.
func (w *Water) Body(c *harness.Ctx) {
	lo, hi := blockRange(w.N, c.ID, c.NProcs)
	for it := 0; it < w.Iters; it++ {
		// Phase 1: zero own forces (held in fixed point).
		for i := lo; i < hi; i++ {
			for k := 0; k < 3; k++ {
				c.StoreI64(w.mol.At(i*molWords+6+k), 0)
			}
		}
		c.Barrier(0)

		// Phase 2: pairwise interactions for my molecules against all
		// higher-numbered ones.
		w.forcePhase(c, lo, hi)
		c.Barrier(1)

		// Phase 3: integrate own molecules; fold kinetic energy into
		// the global statistics under its lock.
		part := 0.0
		for i := lo; i < hi; i++ {
			for k := 0; k < 3; k++ {
				v := w.mol.Load(c, i*molWords+3+k) + waterDT*fromFx(c.LoadI64(w.mol.At(i*molWords+6+k)))
				w.mol.Store(c, i*molWords+3+k, v)
				p := w.mol.Load(c, i*molWords+k) + waterDT*v
				w.mol.Store(c, i*molWords+k, p)
				part += 0.5 * v * v
				flop(c, 6)
			}
		}
		if hi > lo {
			c.Acquire(waterStatsLock)
			c.StoreI64(w.kin, c.LoadI64(w.kin)+toFx(part))
			c.Release(waterStatsLock)
		}
		c.Barrier(2)
	}
}

// Verify replays the simulation on the host and compares every
// molecule's state plus the energy statistic (tolerantly: parallel
// accumulation order perturbs the last float bits).
func (w *Water) Verify(m *harness.Machine) error {
	n := w.N
	pos := make([][3]float64, n)
	vel := make([][3]float64, n)
	force := make([][3]float64, n)
	for i := 0; i < n; i++ {
		pos[i], vel[i] = initialMol(i)
	}
	kin := 0.0
	for it := 0; it < w.Iters; it++ {
		for i := range force {
			force[i] = [3]float64{}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				f := pairForce(pos[i], pos[j])
				for k := 0; k < 3; k++ {
					force[i][k] += f[k]
					force[j][k] -= f[k]
				}
			}
		}
		for i := 0; i < n; i++ {
			for k := 0; k < 3; k++ {
				vel[i][k] += waterDT * force[i][k]
				pos[i][k] += waterDT * vel[i][k]
				kin += 0.5 * vel[i][k] * vel[i][k]
			}
		}
	}
	const tol = 1e-9
	if err := w.mol.Visit(m, 0, n*molWords, func(k int, got float64) error {
		i, d := k/molWords, k%molWords
		switch {
		case d < 3 && !approxEqual(got, pos[i][d], tol):
			return fmt.Errorf("mol %d pos[%d] = %g, want %g", i, d, got, pos[i][d])
		case d >= 3 && d < 6 && !approxEqual(got, vel[i][d-3], tol):
			return fmt.Errorf("mol %d vel[%d] = %g, want %g", i, d-3, got, vel[i][d-3])
		}
		return nil
	}); err != nil {
		return err
	}
	return checkClose("kinetic energy", fromFx(m.GetI64(w.kin)), kin, 1e-9)
}
