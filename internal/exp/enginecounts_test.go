package exp

import (
	"runtime"
	"testing"

	"mgs/internal/apps"
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/serve"
)

// TestEngineCountsGolden pins harness.Result.Engine — the simulator's
// own work, counted exactly — on the short shapes of the five benchmark
// workloads (bench/workloads.go, one point of each kind). The counts are
// a pure function of the run, so this is the host-speed regression test
// that has no noise: a change that doubles coroutine switches, adds an
// event per message or stops reusing delivery records fails here on any
// machine. A change that means to move them re-pins the table from the
// failure message.
//
// Each row also holds two host allocation budgets per run, each the
// measured value plus 10 %, the headroom -race needs (it reads up to
// 4 % higher): mallocs, and KB allocated (runtime.MemStats.TotalAlloc).
// A change that makes a per-message or per-event path allocate again
// fails the first; one that makes a per-SSMP table grow with the
// machine's page count instead of the pages the SSMP touches fails the
// second — scale-tiered/jacobi-c1, 256 SSMPs of one processor, is the
// smallest shape where those tables dominated (29,502 KB per run when
// each was a flat array indexed by global page number).
func TestEngineCountsGolden(t *testing.T) {
	tiered := harness.WithTopology(msg.NewTiered(0))
	mcs := []harness.Option{harness.WithLockAlgo("mcs"), harness.WithBarrierAlgo("dissemination")}
	scaleJacobi := func() harness.App {
		app, err := ScaleApp("jacobi", 256)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	rows := []struct {
		name       string
		app        func() harness.App // fresh per run: apps hold machine-bound addresses
		cfg        harness.Config
		want       harness.EngineCounts
		maxMallocs float64
		maxAllocKB float64
	}{
		{"tlb-thrash/matmul", func() harness.App { return &apps.MatMul{N: 24} }, harness.NewConfig(8, 4, harness.WithTLBSize(4)),
			harness.EngineCounts{Events: 4638, Switches: 4450, PeakQueue: 8, DeliveriesNew: 4, DeliveriesReused: 72}, 638, 395},
		{"fig-fine/water", func() harness.App { return &apps.Water{N: 16, Iters: 1} }, harness.NewConfig(8, 2),
			harness.EngineCounts{Events: 6058, Switches: 1749, PeakQueue: 11, DeliveriesNew: 9, DeliveriesReused: 2063}, 884, 395},
		{"fig-fine/barnes-hut", func() harness.App { return &apps.BarnesHut{NBodies: 24, Iters: 1, Theta: 0.6} }, harness.NewConfig(8, 2),
			harness.EngineCounts{Events: 2149, Switches: 667, PeakQueue: 11, DeliveriesNew: 11, DeliveriesReused: 711}, 1485, 641},
		{"fig-fine/tsp", func() harness.App { return &apps.TSP{NCities: 6, Depth: 3} }, harness.NewConfig(8, 2),
			harness.EngineCounts{Events: 1463, Switches: 463, PeakQueue: 9, DeliveriesNew: 5, DeliveriesReused: 489}, 648, 385},
		{"access-stream/jacobi", func() harness.App { return &apps.Jacobi{N: 34, Iters: 2} }, harness.NewConfig(8, 8, harness.WithTLBSize(256)),
			harness.EngineCounts{Events: 82, Switches: 74, PeakQueue: 8, DeliveriesNew: 1, DeliveriesReused: 3}, 423, 517},
		{"scale-tiered/jacobi", func() harness.App { return &apps.Jacobi{N: 34, Iters: 1} }, harness.NewConfig(16, 4, tiered),
			harness.EngineCounts{Events: 415, Switches: 165, PeakQueue: 16, DeliveriesNew: 12, DeliveriesReused: 108}, 951, 776},
		{"scale-tiered/jacobi-c1", scaleJacobi, harness.NewConfig(256, 1, tiered),
			harness.EngineCounts{Events: 23296, Switches: 6672, PeakQueue: 256, DeliveriesNew: 256, DeliveriesReused: 8056}, 35974, 20525},
		{"sync-serve/serve-token", func() harness.App { return apps.NewServe(serve.DefaultWorkload(true, 1)) }, harness.NewConfig(8, 4),
			harness.EngineCounts{Events: 2760, Switches: 882, PeakQueue: 9, DeliveriesNew: 5, DeliveriesReused: 923}, 740, 433},
		{"sync-serve/syncbench-mcs", func() harness.App { return &apps.SyncBench{Iters: 12} }, harness.NewConfig(8, 4, mcs...),
			harness.EngineCounts{Events: 3876, Switches: 1051, PeakQueue: 8, DeliveriesNew: 8, DeliveriesReused: 1404}, 612, 363},
	}
	for _, r := range rows {
		run := func() harness.Result {
			res, err := harness.RunApp(r.app(), r.cfg)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			return res
		}
		if res := run(); res.Engine != r.want {
			t.Errorf("%s:\n got %#v\nwant %#v", r.name, res.Engine, r.want)
		}
		mallocs, kb := allocsPerRun(3, func() { run() })
		if mallocs > r.maxMallocs {
			t.Errorf("%s: %.0f mallocs per run, budget %.0f", r.name, mallocs, r.maxMallocs)
		}
		if kb > r.maxAllocKB {
			t.Errorf("%s: %.0f KB allocated per run, budget %.0f", r.name, kb, r.maxAllocKB)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun reporting bytes as well: the
// mallocs and the KB one call of f allocates, averaged over runs calls
// on one P. The caller has already run f once to warm it up.
func allocsPerRun(runs int, f func()) (mallocs, kb float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	n := float64(runs)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
}
