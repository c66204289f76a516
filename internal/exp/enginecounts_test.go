package exp

import (
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
// Each row also holds a host allocation budget: the measured mallocs
// per run plus 10 %, the headroom -race needs (it reads up to 4 %
// higher). A change that makes a per-message or per-event path allocate
// again fails here, not only in the benchmark.
func TestEngineCountsGolden(t *testing.T) {
	tiered := harness.WithTopology(msg.NewTiered(0))
	mcs := []harness.Option{harness.WithLockAlgo("mcs"), harness.WithBarrierAlgo("dissemination")}
	rows := []struct {
		name       string
		app        func() harness.App // fresh per run: apps hold machine-bound addresses
		cfg        harness.Config
		want       harness.EngineCounts
		maxMallocs float64
	}{
		{"tlb-thrash/matmul", func() harness.App { return &apps.MatMul{N: 24} }, harness.NewConfig(8, 4, harness.WithTLBSize(4)),
			harness.EngineCounts{Events: 4638, Switches: 4450, PeakQueue: 8, DeliveriesNew: 4, DeliveriesReused: 72}, 687},
		{"fig-fine/water", func() harness.App { return &apps.Water{N: 16, Iters: 1} }, harness.NewConfig(8, 2),
			harness.EngineCounts{Events: 6058, Switches: 1749, PeakQueue: 11, DeliveriesNew: 9, DeliveriesReused: 2063}, 893},
		{"fig-fine/barnes-hut", func() harness.App { return &apps.BarnesHut{NBodies: 24, Iters: 1, Theta: 0.6} }, harness.NewConfig(8, 2),
			harness.EngineCounts{Events: 2149, Switches: 667, PeakQueue: 11, DeliveriesNew: 11, DeliveriesReused: 711}, 1628},
		{"fig-fine/tsp", func() harness.App { return &apps.TSP{NCities: 6, Depth: 3} }, harness.NewConfig(8, 2),
			harness.EngineCounts{Events: 1463, Switches: 463, PeakQueue: 9, DeliveriesNew: 5, DeliveriesReused: 489}, 656},
		{"access-stream/jacobi", func() harness.App { return &apps.Jacobi{N: 34, Iters: 2} }, harness.NewConfig(8, 8, harness.WithTLBSize(256)),
			harness.EngineCounts{Events: 82, Switches: 74, PeakQueue: 8, DeliveriesNew: 1, DeliveriesReused: 3}, 469},
		{"scale-tiered/jacobi", func() harness.App { return &apps.Jacobi{N: 34, Iters: 1} }, harness.NewConfig(16, 4, tiered),
			harness.EngineCounts{Events: 415, Switches: 165, PeakQueue: 16, DeliveriesNew: 12, DeliveriesReused: 108}, 997},
		{"sync-serve/serve-token", func() harness.App { return apps.NewServe(serve.DefaultWorkload(true, 1)) }, harness.NewConfig(8, 4),
			harness.EngineCounts{Events: 2760, Switches: 882, PeakQueue: 9, DeliveriesNew: 5, DeliveriesReused: 923}, 766},
		{"sync-serve/syncbench-mcs", func() harness.App { return &apps.SyncBench{Iters: 12} }, harness.NewConfig(8, 4, mcs...),
			harness.EngineCounts{Events: 3876, Switches: 1051, PeakQueue: 8, DeliveriesNew: 8, DeliveriesReused: 1404}, 620},
	}
	for _, r := range rows {
		res, err := harness.RunApp(r.app(), r.cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.Engine != r.want {
			t.Errorf("%s:\n got %#v\nwant %#v", r.name, res.Engine, r.want)
		}
		mallocs := testing.AllocsPerRun(3, func() {
			if _, err := harness.RunApp(r.app(), r.cfg); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		})
		if mallocs > r.maxMallocs {
			t.Errorf("%s: %.0f mallocs per run, budget %.0f", r.name, mallocs, r.maxMallocs)
		}
	}
}
