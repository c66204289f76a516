package exp

import (
	"fmt"

	"mgs/internal/apps"
	"mgs/internal/core"
	"mgs/internal/framework"
	"mgs/internal/harness"
	"mgs/internal/sim"
)

// Thousand-processor scale experiments (the DSSMP scaling question the
// paper's 32-processor machine could not ask): the §2.4 performance
// framework evaluated at P = 256 and P = 1024 on the tiered LAN/WAN
// topology, with the Server's directory footprint measured alongside —
// the sparse exact directory (core/dirset.go) keeps it O(sharers) per
// page instead of O(SSMPs), which is what makes these machine sizes
// simulable at all. The per-SSMP page tables around it are two-level
// (vm.PageMap), so their host memory follows the pages each SSMP
// touches, not the machine's page count: the P = 1024, C = 1 point
// allocates about 160 MB, where flat tables took 778 MB.

// ScalePoint is one cluster size of a scale sweep.
type ScalePoint struct {
	C        int
	Cycles   sim.Time
	LinkWait int64
	Dir      core.DirectoryStats
}

// ScaleClusterSizes returns the cluster sizes the framework metrics
// need at fixed P: C = 1, the geometric middle of the software region,
// P/2, and P — the minimum set framework.Analyze accepts, kept sparse
// because every point is a full P-processor simulation.
func ScaleClusterSizes(p int) []int {
	mid := 1
	for mid*mid < p/2 {
		mid *= 2
	}
	cs := []int{1}
	for _, c := range []int{mid, p / 2, p} {
		if c > cs[len(cs)-1] {
			cs = append(cs, c)
		}
	}
	return cs
}

// ScaleApp returns the named app sized so a P-processor machine has one
// natural unit of work per processor (Jacobi rows, MatMul rows, Water
// molecules...). The fixed SmallApp sizes would leave almost every
// processor of a 1024-processor machine idle at the barriers.
func ScaleApp(name string, p int) (harness.App, error) {
	switch name {
	case "jacobi":
		return &apps.Jacobi{N: p + 2, Iters: 1}, nil
	case "matmul":
		return &apps.MatMul{N: p}, nil
	case "water":
		return &apps.Water{N: p, Iters: 1}, nil
	case "barnes-hut":
		return &apps.BarnesHut{NBodies: p, Iters: 1, Theta: 0.6}, nil
	}
	return nil, fmt.Errorf("exp: no scale sizing for app %q (have jacobi, matmul, water, barnes-hut)", name)
}

// ScaleSweep runs the named app, sized by ScaleApp (e.Apps is not
// consulted), at fixed P across the given cluster sizes on the
// topology e's options select, returning the per-point results —
// cycles, link-wait, directory footprint — and the framework metrics
// (breakup penalty, multigrain potential, curvature). Points run
// concurrently.
func ScaleSweep(name string, p int, cs []int, e Env) ([]ScalePoint, framework.Metrics, error) {
	out := make([]ScalePoint, len(cs))
	err := e.each(len(cs), func(i int) error {
		app, err := ScaleApp(name, p)
		if err != nil {
			return err
		}
		res, err := harness.RunApp(app, e.Config(p, cs[i]))
		if err != nil {
			return fmt.Errorf("scale %s P=%d C=%d: %w", name, p, cs[i], err)
		}
		out[i] = ScalePoint{C: cs[i], Cycles: res.Cycles, LinkWait: res.LinkWait, Dir: res.Dir}
		return nil
	})
	if err != nil {
		return nil, framework.Metrics{}, err
	}
	var fp []framework.Point
	for _, pt := range out {
		fp = append(fp, framework.Point{C: pt.C, Time: float64(pt.Cycles)})
	}
	m, err := framework.Analyze(fp)
	if err != nil {
		return nil, framework.Metrics{}, fmt.Errorf("scale %s P=%d: %w", name, p, err)
	}
	return out, m, nil
}
