// Package exp defines the paper's experiments: every table and figure
// of the evaluation section (§5) is regenerable from here, plus the
// ablations DESIGN.md calls out. cmd/mgs and the repository benchmarks
// are thin wrappers over this package.
package exp

import (
	"fmt"
	"slices"

	"mgs/internal/apps"
	"mgs/internal/core"
	"mgs/internal/framework"
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/serve"
	"mgs/internal/sim"
)

// appTable is the one ordered list of applications: the paper's suite
// first, then the kernels and workloads added since. Each row builds a
// fresh instance at the scaled default size recorded in EXPERIMENTS.md
// or, with small set, at the reduced size for quick runs and tests.
var appTable = []struct {
	name  string
	paper bool
	mk    func(small bool) harness.App
}{
	{"jacobi", true, func(s bool) harness.App { return &apps.Jacobi{N: size(s, 128, 48), Iters: size(s, 10, 3)} }},
	{"matmul", true, func(s bool) harness.App { return &apps.MatMul{N: size(s, 128, 24)} }},
	{"tsp", true, func(s bool) harness.App { return &apps.TSP{NCities: size(s, 10, 7), Depth: size(s, 4, 3)} }},
	{"water", true, func(s bool) harness.App { return &apps.Water{N: size(s, 64, 24), Iters: size(s, 2, 1)} }},
	{"barnes-hut", true, func(s bool) harness.App {
		return &apps.BarnesHut{NBodies: size(s, 96, 32), Iters: size(s, 2, 1), Theta: 0.6}
	}},
	{"water-kernel", false, func(s bool) harness.App { return &apps.WaterKernel{N: size(s, 256, 128)} }},
	{"water-kernel-tiled", false, func(s bool) harness.App { return &apps.WaterKernel{N: size(s, 256, 128), Tiled: true} }},
	{"lu", false, func(s bool) harness.App { return &apps.LU{N: size(s, 128, 48), B: size(s, 16, 8)} }},
	{"serve", false, func(s bool) harness.App { return apps.NewServe(serve.DefaultWorkload(s, 1)) }},
	{"syncbench", false, func(s bool) harness.App { return &apps.SyncBench{Iters: size(s, 12, 4)} }},
}

func size(small bool, full, reduced int) int {
	if small {
		return reduced
	}
	return full
}

// AppNames lists the paper's application suite in the paper's order;
// AllAppNames is every application NewApp and SmallApp accept.
var AppNames, AllAppNames = appNames(true), appNames(false)

func appNames(paperOnly bool) []string {
	var names []string
	for _, a := range appTable {
		if a.paper || !paperOnly {
			names = append(names, a.name)
		}
	}
	return names
}

// NewApp returns a fresh paper-default instance of the named app.
func NewApp(name string) harness.App { return newApp(name, false) }

// SmallApp returns a reduced instance for quick runs and tests.
func SmallApp(name string) harness.App { return newApp(name, true) }

func newApp(name string, small bool) harness.App {
	for _, a := range appTable {
		if a.name == name {
			return a.mk(small)
		}
	}
	panic(fmt.Sprintf("exp: unknown app %q", name))
}

// Env is what every experiment takes from whoever runs it, beside the
// experiment's own parameters: how to build an application by name, the
// options every machine of the run is configured with (the experiment
// applies its own on top), and how many simulations may run at once.
type Env struct {
	Apps    func(name string) harness.App // NewApp or SmallApp
	Opts    []harness.Option
	Workers int // sweep width: 0 = GOMAXPROCS, 1 = inline on the caller's goroutine
}

// Config returns the paper's configuration (harness.NewConfig) for a
// (p, c) machine under the run's options, then extra.
func (e Env) Config(p, c int, extra ...harness.Option) harness.Config {
	return harness.NewConfig(p, c, slices.Concat(e.Opts, extra)...)
}

// each runs job(0) … job(n-1), up to e.Workers at a time, and returns
// the lowest-indexed error. The jobs are independent simulations, so
// the outcome does not depend on the width.
func (e Env) each(n int, job func(i int) error) error {
	for _, err := range harness.RunIndexed(e.Workers, n, job) {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweep runs the named app at every cluster size in cs on a P=p
// machine, with extra applied on top of the run's options.
func (e Env) sweep(name string, p int, cs []int, extra ...harness.Option) ([]harness.SweepPoint, error) {
	return harness.Sweep(e.Workers, func() harness.App { return e.Apps(name) }, cs,
		func(c int) harness.Config { return e.Config(p, c, extra...) })
}

// Table3 measures the micro costs (Table 3).
func Table3() harness.Micro { return harness.MeasureMicro() }

// Table4Row is one line of Table 4.
type Table4Row struct {
	App     string
	Seq     sim.Time // sequential cycles (P=1, with SVM overhead)
	Par     sim.Time // cycles on P processors, tightly coupled (C=P)
	Speedup float64
}

// Table4 reports sequential runtime and tightly-coupled speedup per
// application (Table 4). The 2·len(AppNames) runs are independent
// simulations and execute concurrently.
func Table4(p int, e Env) ([]Table4Row, error) {
	n := len(AppNames)
	runs := make([]harness.Result, 2*n) // [2k] = seq, [2k+1] = par
	err := e.each(2*n, func(i int) error {
		name, procs, kind := AppNames[i/2], 1, "seq"
		if i%2 == 1 {
			procs, kind = p, "par"
		}
		var err error
		runs[i], err = harness.RunApp(e.Apps(name), e.Config(procs, procs))
		if err != nil {
			return fmt.Errorf("table4 %s %s: %w", name, kind, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Table4Row
	for k, name := range AppNames {
		seq, par := runs[2*k], runs[2*k+1]
		rows = append(rows, Table4Row{
			App: name, Seq: seq.Cycles, Par: par.Cycles,
			Speedup: float64(seq.Cycles) / float64(par.Cycles),
		})
	}
	return rows, nil
}

// FigureSweep reproduces one of Figures 6–10: the named app across all
// power-of-two cluster sizes at fixed P, returning the per-point
// results and the §2.4 framework metrics.
func FigureSweep(name string, p int, e Env) ([]harness.SweepPoint, framework.Metrics, error) {
	points, err := e.sweep(name, p, harness.PowersOfTwo(p))
	if err != nil {
		return nil, framework.Metrics{}, err
	}
	return points, framework.Analyze(FrameworkPoints(points)), nil
}

// FrameworkPoints converts sweep points for framework analysis and
// printing.
func FrameworkPoints(points []harness.SweepPoint) []framework.Point {
	var fp []framework.Point
	for _, pt := range points {
		fp = append(fp, framework.Point{C: pt.C, Time: float64(pt.Res.Cycles)})
	}
	return fp
}

// HitPoint is one Figure 11 sample.
type HitPoint struct {
	C     int
	Ratio float64
}

// LockHitSweep reproduces Figure 11: MGS lock hit ratio versus cluster
// size for the lock-using applications. The C = P point is excluded (no
// MGS locks run there), as in the figure.
func LockHitSweep(names []string, p int, e Env) (map[string][]HitPoint, error) {
	cs := harness.PowersOfTwo(p / 2)
	ratios := make([]float64, len(names)*len(cs))
	err := e.each(len(ratios), func(i int) error {
		name, c := names[i/len(cs)], cs[i%len(cs)]
		res, err := harness.RunApp(e.Apps(name), e.Config(p, c))
		if err != nil {
			return fmt.Errorf("fig11 %s C=%d: %w", name, c, err)
		}
		if res.LockTotal > 0 {
			ratios[i] = float64(res.LockHits) / float64(res.LockTotal)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]HitPoint)
	for i, name := range names {
		for j, c := range cs {
			out[name] = append(out[name], HitPoint{C: c, Ratio: ratios[i*len(cs)+j]})
		}
	}
	return out, nil
}

// Fig12 reproduces Figure 12: the Water force kernel on n molecules
// without and with the tiling transformation, swept across cluster
// sizes. The kernel is sized by n, so e.Apps is not consulted.
func Fig12(p, n int, e Env) (plain, tiled []harness.SweepPoint, err error) {
	kernel := func(tiled bool) ([]harness.SweepPoint, error) {
		e.Apps = func(string) harness.App { return &apps.WaterKernel{N: n, Tiled: tiled} }
		return e.sweep("water-kernel", p, harness.PowersOfTwo(p))
	}
	if plain, err = kernel(false); err != nil {
		return nil, nil, fmt.Errorf("fig12 plain: %w", err)
	}
	if tiled, err = kernel(true); err != nil {
		return nil, nil, fmt.Errorf("fig12 tiled: %w", err)
	}
	return plain, tiled, nil
}

// Ablation is one two-sided design comparison from DESIGN.md: the
// run's own configuration (the baseline — every ablated mechanism is
// in its paper-default state there) against the same configuration
// with Alt applied on top.
type Ablation struct {
	Name  string // mgs sweep -ablation selector
	Title string
	// BaseLabel and AltLabel head the two result columns.
	BaseLabel, AltLabel string
	Alt                 []harness.Option
}

// meshPerHop is the mesh ablation's per-hop latency in cycles: 250
// makes the average uncontended mesh latency at C=1, P=32 (a 6×6 grid,
// ~4 mean hops) comparable to the paper's 1000-cycle uniform delay,
// isolating the effect of non-uniformity and link contention.
const meshPerHop = 250

var ablations = []Ablation{
	// The single-writer optimization of §3.1.1.
	{"1writer", "single-writer optimization ablation", "with", "without", variant(core.VariantNoSingleWriter)},
	// Serial versus parallel release-round invalidations.
	{"serialinv", "serial vs parallel invalidation ablation", "serial", "parallel", variant(core.VariantParallelInv)},
	// Invalidate-based (the paper's) versus update-based (Galactica
	// Net-style) release rounds.
	{"update", "invalidate vs update protocol ablation", "invalidate", "update", variant(core.VariantUpdate)},
	// The paper's eager release consistency versus the TreadMarks-style
	// lazy variant (the §6 comparison): releases stop invalidating,
	// acquires validate instead.
	{"lazy", "eager vs lazy release consistency", "eager", "lazy", variant(core.VariantLazy)},
	// The run's interconnect (the paper's uniform fixed-delay LAN unless
	// told otherwise) versus the contended 2D mesh (internal/msg mesh.go).
	{"mesh", "uniform LAN vs contended 2D-mesh interconnect", "uniform", "mesh",
		[]harness.Option{harness.WithTopology(msg.NewMesh2D()),
			func(c *harness.Config) { c.Msg.InterPerHop = meshPerHop }}},
}

// variant is the alternative that runs the named core.Variants entry.
func variant(name string) []harness.Option {
	for _, nv := range core.Variants() {
		if nv.Name == name {
			return []harness.Option{func(c *harness.Config) { c.Variant = nv.Variant }}
		}
	}
	panic("exp: no protocol variant " + name)
}

// AblationByName finds a two-sided ablation by its selector.
func AblationByName(name string) (Ablation, bool) {
	for _, ab := range ablations {
		if ab.Name == name {
			return ab, true
		}
	}
	return Ablation{}, false
}

// AblationSweep sweeps the named app across the software region
// (C < P) twice: under the run's own options, then with alt on top.
func AblationSweep(name string, p int, alt []harness.Option, e Env) (base, with []harness.SweepPoint, err error) {
	cs := harness.PowersOfTwo(p / 2)
	if base, err = e.sweep(name, p, cs); err != nil {
		return nil, nil, err
	}
	with, err = e.sweep(name, p, cs, alt...)
	return base, with, err
}

// PageSizePoint is one page-size ablation sample.
type PageSizePoint struct {
	PageSize int
	Cycles   sim.Time
}

// AblationPageSize runs the named app at one cluster size across page
// sizes (§2.2's grain trade-off: larger pages amortize protocol
// overhead but aggravate false sharing).
func AblationPageSize(name string, p, c int, sizes []int, e Env) ([]PageSizePoint, error) {
	out := make([]PageSizePoint, len(sizes))
	err := e.each(len(sizes), func(i int) error {
		res, err := harness.RunApp(e.Apps(name), e.Config(p, c, harness.WithPageSize(sizes[i])))
		if err != nil {
			return fmt.Errorf("pagesize %d: %w", sizes[i], err)
		}
		out[i] = PageSizePoint{PageSize: sizes[i], Cycles: res.Cycles}
		return nil
	})
	return out, err
}
