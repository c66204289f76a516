package exp

import (
	"reflect"
	"runtime"
	"testing"

	"mgs/internal/apps"
	"mgs/internal/harness"
	"mgs/internal/mem"
	"mgs/internal/msg"
	"mgs/internal/serve"
)

// TestEngineCountsGolden pins harness.Result.Engine — the simulator's
// own work, counted exactly — on the short shapes of the five benchmark
// workloads (bench/workloads.go, one point of each kind). The counts are
// a pure function of the run, so this is the host-speed regression test
// that has no noise: a change that doubles coroutine switches, adds an
// event per message or stops reusing any recycled record fails here on
// any machine. Every mem.Pool's carved and reused values are pinned, so
// a record that stops going back to its pool moves an exact count, not
// only a malloc budget; so are the blocks of page bytes and of cache
// chunks the machine's stores allocated, so a page or chunk allocated
// on its own instead of carved moves one too, and so do the sharer
// words the directories take. A failure names each
// field that differs, and a change that means to move them re-pins
// those fields from it.
//
// Elided and FrontHits pin the engine's two fast paths: a Sleep that
// would resume at once and so does not switch (each would have been one
// more Event and one more Switch), and an event dispatched from the
// queue's front slot. Lookups pins by-name counter lookups during the
// run, which every row also holds to at most one per counter name: the
// protocol's charge sites hold resolved handles.
//
// Each row also holds two host allocation budgets per run, each the
// row's reading plus 10 %: mallocs, and KB allocated
// (runtime.MemStats.TotalAlloc). A row pins two readings of each, one
// without -race and one under it, and a run is held to the reading of
// its own build: the race runtime adds about six allocations per
// processor coroutine, 14.5 % more mallocs on scale-tiered/jacobi-c1
// with its 256, more than any one headroom could cover and still catch
// a per-page allocation there. A change that makes a per-message or
// per-event path allocate again fails the first. One that makes a
// per-SSMP table grow with the machine's page count instead of the
// pages the SSMP touches fails the second: scale-tiered/jacobi-c1, 256
// SSMPs of one processor, is the smallest shape where those tables
// dominated (29,502 KB per run when each was a flat array indexed by
// global page number). DirWords pins the sharer words the directories
// were carved with, which follow the cluster size: one a directory at
// C = 1, 64 at C > 32. TableBlocks, IndexBlocks and QueueBlocks pin
// the blocks of TLB and SSMP page-table chunks and indexes and of
// delayed-update-queue runs the machine's stores carved. The
// page-store, cache-footprint and dir-width rows of internal/mutants
// need a budget failure and a count failure.
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
		host, race hostAllocs // per run, without -race and under it
	}{
		{"tlb-thrash/matmul", func() harness.App { return &apps.MatMul{N: 24} }, harness.NewConfig(8, 4, harness.WithTLBSize(4)),
			harness.EngineCounts{Events: 4625, Switches: 4437, Elided: 13, FrontHits: 99, PeakQueue: 8, Lookups: 17,
				Deliveries: pool(4, 72), SyncRecords: pool(2, 2), Messages: pool(8, 101), PageBufs: pool(2, 6), DiffBufs: pool(1, 0), Frames: pool(22, 0), Dirs: pool(22, 0),
				PageBlocks: 11, ChunkBlocks: 8, DirWords: 88, TableBlocks: 11, IndexBlocks: 11, QueueBlocks: 7}, hostAllocs{456, 128}, hostAllocs{471, 129}},
		{"fig-fine/water", func() harness.App { return &apps.Water{N: 16, Iters: 1} }, harness.NewConfig(8, 2),
			harness.EngineCounts{Events: 5624, Switches: 1315, Elided: 434, FrontHits: 1754, PeakQueue: 11, Lookups: 30,
				Deliveries: pool(9, 2063), SyncRecords: pool(4, 399), Messages: pool(9, 1963), PageBufs: pool(4, 198), DiffBufs: pool(2, 123), Frames: pool(8, 114), Dirs: pool(7, 115),
				PageBlocks: 7, ChunkBlocks: 6, DirWords: 14, TableBlocks: 14, IndexBlocks: 14, QueueBlocks: 7}, hostAllocs{627, 86}, hostAllocs{634, 87}},
		{"fig-fine/barnes-hut", func() harness.App { return &apps.BarnesHut{NBodies: 24, Iters: 1, Theta: 0.6} }, harness.NewConfig(8, 2),
			harness.EngineCounts{Events: 2037, Switches: 555, Elided: 112, FrontHits: 638, PeakQueue: 11, Lookups: 29,
				Deliveries: pool(11, 711), SyncRecords: pool(6, 102), Messages: pool(11, 688), PageBufs: pool(12, 102), DiffBufs: pool(4, 40), Frames: pool(76, 28), Dirs: pool(76, 28),
				PageBlocks: 16, ChunkBlocks: 9, DirWords: 152, TableBlocks: 21, IndexBlocks: 21, QueueBlocks: 8}, hostAllocs{980, 321}, hostAllocs{1051, 323}},
		{"fig-fine/tsp", func() harness.App { return &apps.TSP{NCities: 6, Depth: 3} }, harness.NewConfig(8, 2),
			harness.EngineCounts{Events: 1322, Switches: 322, Elided: 141, FrontHits: 411, PeakQueue: 9, Lookups: 27,
				Deliveries: pool(5, 489), SyncRecords: pool(4, 192), Messages: pool(8, 335), PageBufs: pool(3, 40), DiffBufs: pool(1, 10), Frames: pool(12, 28), Dirs: pool(12, 28),
				PageBlocks: 9, ChunkBlocks: 5, DirWords: 24, TableBlocks: 13, IndexBlocks: 13, QueueBlocks: 5}, hostAllocs{481, 76}, hostAllocs{492, 77}},
		{"access-stream/jacobi", func() harness.App { return &apps.Jacobi{N: 34, Iters: 2} }, harness.NewConfig(8, 8, harness.WithTLBSize(256)),
			harness.EngineCounts{Events: 81, Switches: 73, Elided: 1, FrontHits: 11, PeakQueue: 8, Lookups: 3,
				Deliveries: pool(1, 3), SyncRecords: pool(1, 3), Messages: pool(0, 0), PageBufs: pool(0, 0), DiffBufs: pool(0, 0), Frames: pool(20, 0), Dirs: pool(20, 0),
				PageBlocks: 11, ChunkBlocks: 7, DirWords: 160, TableBlocks: 9, IndexBlocks: 9, QueueBlocks: 0}, hostAllocs{319, 98}, hostAllocs{332, 99}},
		{"scale-tiered/jacobi", func() harness.App { return &apps.Jacobi{N: 34, Iters: 1} }, harness.NewConfig(16, 4, tiered),
			harness.EngineCounts{Events: 415, Switches: 165, Elided: 0, FrontHits: 57, PeakQueue: 16, Lookups: 18,
				Deliveries: pool(12, 108), SyncRecords: pool(4, 4), Messages: pool(16, 109), PageBufs: pool(3, 6), DiffBufs: pool(3, 0), Frames: pool(26, 0), Dirs: pool(25, 0),
				PageBlocks: 12, ChunkBlocks: 8, DirWords: 100, TableBlocks: 18, IndexBlocks: 18, QueueBlocks: 10}, hostAllocs{632, 165}, hostAllocs{650, 166}},
		{"scale-tiered/jacobi-c1", scaleJacobi, harness.NewConfig(256, 1, tiered),
			harness.EngineCounts{Events: 23284, Switches: 6660, Elided: 12, FrontHits: 298, PeakQueue: 256, Lookups: 19,
				Deliveries: pool(256, 8056), SyncRecords: pool(256, 256), Messages: pool(256, 7857), PageBufs: pool(347, 1434), DiffBufs: pool(91, 222), Frames: pool(2564, 8), Dirs: pool(2544, 24),
				PageBlocks: 56, ChunkBlocks: 42, DirWords: 2544, TableBlocks: 84, IndexBlocks: 66, QueueBlocks: 20}, hostAllocs{10535, 7440}, hostAllocs{12059, 7486}},
		{"sync-serve/serve-token", func() harness.App { return apps.NewServe(serve.DefaultWorkload(true, 1)) }, harness.NewConfig(8, 4),
			harness.EngineCounts{Events: 2392, Switches: 514, Elided: 368, FrontHits: 914, PeakQueue: 9, Lookups: 24,
				Deliveries: pool(5, 923), SyncRecords: pool(4, 550), Messages: pool(4, 427), PageBufs: pool(3, 35), DiffBufs: pool(1, 22), Frames: pool(16, 20), Dirs: pool(16, 20),
				PageBlocks: 10, ChunkBlocks: 7, DirWords: 64, TableBlocks: 11, IndexBlocks: 11, QueueBlocks: 7}, hostAllocs{499, 105}, hostAllocs{507, 106}},
		{"sync-serve/syncbench-mcs", func() harness.App { return &apps.SyncBench{Iters: 12} }, harness.NewConfig(8, 4, mcs...),
			harness.EngineCounts{Events: 3447, Switches: 622, Elided: 429, FrontHits: 1796, PeakQueue: 8, Lookups: 27,
				Deliveries: pool(8, 1404), SyncRecords: pool(8, 328), Messages: pool(5, 1210), PageBufs: pool(2, 124), DiffBufs: pool(2, 136), Frames: pool(4, 61), Dirs: pool(4, 61),
				PageBlocks: 4, ChunkBlocks: 5, DirWords: 16, TableBlocks: 10, IndexBlocks: 10, QueueBlocks: 7}, hostAllocs{403, 57}, hostAllocs{407, 58}},
	}
	for _, r := range rows {
		run := func() harness.Result {
			res, err := harness.RunApp(r.app(), r.cfg)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			return res
		}
		res := run()
		got, want := reflect.ValueOf(res.Engine), reflect.ValueOf(r.want)
		for i := range got.NumField() {
			if g, w := got.Field(i).Interface(), want.Field(i).Interface(); g != w {
				t.Errorf("%s: %s = %+v, want %+v", r.name, got.Type().Field(i).Name, g, w)
			}
		}
		if n := int64(len(res.Counters)); res.Engine.Lookups > n {
			t.Errorf("%s: %d by-name counter lookups during the run, more than its %d counter names", r.name, res.Engine.Lookups, n)
		}
		pinned := r.host
		if raceEnabled {
			pinned = r.race
		}
		maxMallocs, maxKB := 1.1*pinned.mallocs, 1.1*pinned.kb
		mallocs, kb := allocsPerRun(3, func() { run() })
		t.Logf("%s: %.0f mallocs (budget %.0f), %.0f KB (budget %.0f) per run", r.name, mallocs, maxMallocs, kb, maxKB)
		if mallocs > maxMallocs {
			t.Errorf("%s: %.0f mallocs per run, budget %.0f", r.name, mallocs, maxMallocs)
		}
		if kb > maxKB {
			t.Errorf("%s: %.0f KB allocated per run, budget %.0f", r.name, kb, maxKB)
		}
	}
}

// hostAllocs is what one run allocated: mallocs, and KB.
type hostAllocs struct{ mallocs, kb float64 }

// pool is the counts of one mem.Pool: values carved, values reused.
func pool(carved, reused int64) mem.Counts { return mem.Counts{Carved: carved, Reused: reused} }

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
