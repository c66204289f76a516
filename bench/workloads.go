package main

import (
	"fmt"

	"mgs/internal/apps"
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/serve"
)

// point is one simulation of a pass: a fresh app on a fresh machine.
// Apps hold machine-bound addresses, so mk builds a new one each time.
type point struct {
	name string
	mk   func() harness.App
	cfg  func() harness.Config
}

// workload is a fixed, ordered list of points. Sizes are pinned here,
// not taken from exp.NewApp, so a change of the experiment defaults
// cannot move the benchmark.
type workload struct {
	name   string
	why    string
	points func(seed uint64, short bool) []point
}

// procs is the processor count of the four paper-shaped workloads;
// short is the P=8 shape the tests run.
func procs(short bool) int {
	if short {
		return 8
	}
	return 32
}

func pt(app string, p, c int, mk func() harness.App, opts ...harness.Option) point {
	return point{
		name: fmt.Sprintf("%s/P%d/C%d", app, p, c),
		mk:   mk,
		cfg:  func() harness.Config { return harness.NewConfig(p, c, opts...) },
	}
}

var workloads = []workload{
	{
		name: "fig-fine",
		why:  "Figures 8-10 sweeps (Water, Barnes-Hut, TSP at six cluster sizes): fine-grain sharing, so engine-context event dispatch, event allocation, msg sends and core protocol handlers do the work",
		points: func(_ uint64, short bool) []point {
			p := procs(short)
			water := func() harness.App { return &apps.Water{N: 64, Iters: 2} }
			bh := func() harness.App { return &apps.BarnesHut{NBodies: 96, Iters: 2, Theta: 0.6} }
			tsp := func() harness.App { return &apps.TSP{NCities: 10, Depth: 4} }
			rounds := 2
			if short {
				water = func() harness.App { return &apps.Water{N: 16, Iters: 1} }
				bh = func() harness.App { return &apps.BarnesHut{NBodies: 24, Iters: 1, Theta: 0.6} }
				tsp = func() harness.App { return &apps.TSP{NCities: 6, Depth: 3} }
				rounds = 1
			}
			var pts []point
			for r := 0; r < rounds; r++ {
				for c := 1; c <= p; c *= 2 {
					pts = append(pts, pt("water", p, c, water), pt("barnes-hut", p, c, bh), pt("tsp", p, c, tsp))
				}
			}
			return pts
		},
	},
	{
		name: "tlb-thrash",
		why:  "Figure 7 MatMul: B spans 72 pages against a 64-entry TLB, so nearly every B access TLB-faults and yields; sim coroutine handoff and the core fault / vm TLB insert path dominate, msg is idle",
		points: func(_ uint64, short bool) []point {
			p := procs(short)
			mm := func() harness.App { return &apps.MatMul{N: 96} }
			if short {
				// 24x24 doubles is 5 pages: shrink the TLB with it so the
				// short run still thrashes.
				mm = func() harness.App { return &apps.MatMul{N: 24} }
				return []point{
					pt("matmul", p, 4, mm, harness.WithTLBSize(4)),
					pt("matmul", p, p, mm, harness.WithTLBSize(4)),
				}
			}
			return []point{pt("matmul", p, 4, mm), pt("matmul", p, p, mm)}
		},
	},
	{
		name: "access-stream",
		why:  "Jacobi 512x512 with a TLB that holds its working set: 52 M simulated accesses for 0.14 M events, so the core access micro-cache, vm TLB lookup, cache domain and stats charging are nearly all the time",
		points: func(_ uint64, short bool) []point {
			p := procs(short)
			j := func() harness.App { return &apps.Jacobi{N: 512, Iters: 20} }
			if short {
				j = func() harness.App { return &apps.Jacobi{N: 34, Iters: 2} }
			}
			// Each processor touches 136 pages per sweep. At the default 64
			// TLB entries that is 86 k fills a pass, each a coroutine switch
			// that wakes an idle OS thread, and the scheduler share came out
			// as high as tlb-thrash's. 256 entries keep the grid mapped, so
			// this workload is the access path and little else.
			tlb := harness.WithTLBSize(256)
			return []point{pt("jacobi", p, 8, j, tlb), pt("jacobi", p, p, j, tlb)}
		},
	},
	{
		name: "scale-tiered",
		why:  "Jacobi at P=1024 on the tiered topology: the only workload where machine construction is a visible share, plus per-link booking in msg, sparse directories and hundreds of MB of host memory",
		points: func(_ uint64, short bool) []point {
			p, n, big := 1024, 1026, 32
			if short {
				p, n, big = 16, 34, 8
			}
			j := func() harness.App { return &apps.Jacobi{N: n, Iters: 1} }
			// C=1 is left out on purpose: it allocates ~830 MB per run and
			// its wall time spread was +-15% on the sizing host.
			tiered := harness.WithTopology(msg.NewTiered(0))
			return []point{pt("jacobi", p, 4, j, tiered), pt("jacobi", p, big, j, tiered)}
		},
	},
	{
		name: "sync-serve",
		why:  "Serve plus SyncBench under (token,tree) and (mcs,dissemination): lock/barrier bound, native msync and the algo shims side by side, Park/Wake, serve trace generation and histogram observes",
		points: func(seed uint64, short bool) []point {
			p := procs(short)
			w := serve.DefaultWorkload(short, seed)
			iters := 12
			if !short {
				for i := range w.Phases {
					w.Phases[i].Cycles *= 20
				}
				w.NKeys = 4096
				iters = 240
			}
			sv := func() harness.App { return apps.NewServe(w) }
			sb := func() harness.App { return &apps.SyncBench{Iters: iters} }
			var pts []point
			for _, a := range [][2]string{{"token", "tree"}, {"mcs", "dissemination"}} {
				opts := []harness.Option{harness.WithLockAlgo(a[0]), harness.WithBarrierAlgo(a[1])}
				tag := func(app string) string { return app + "-" + a[0] }
				pts = append(pts,
					pt(tag("serve"), p, 4, sv, opts...),
					pt(tag("syncbench"), p, 4, sb, opts...),
					pt(tag("syncbench"), p, 4, sb, opts...))
			}
			return pts
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
