package exp

import (
	"testing"

	"mgs/internal/apps"
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/serve"
	"mgs/internal/vm"
)

// TestSetupFirstTouchOrder pins the order in which every app's Setup
// first touches its home pages. mem.FrameAllocator numbers an SSMP's
// home frames in first-touch order and cache.Domain picks a line's slot
// from Frame.ID, so a Setup that writes the same values in another page
// order builds a different simulated machine. Each row hashes (page,
// home Frame.ID) over every page with a home frame after Setup, against
// values recorded when every Setup was a word loop: each app at its
// default and -small shapes, plus the benchmark's own shapes where they
// differ (bench/workloads.go).
func TestSetupFirstTouchOrder(t *testing.T) {
	type row struct {
		name string
		app  func() harness.App
		cfg  harness.Config
		want uint64
	}
	want := map[string][2]uint64{ // default shape, -small shape
		"jacobi":             {0x8e385de99a42db5a, 0xf42f7b244ae35bd9},
		"matmul":             {0x96a18f1739b99092, 0x286e949e0517dbef},
		"tsp":                {0xf23a36ab62407ce7, 0x5fb587a9e4f0f43f},
		"water":              {0x87597f4ebcdf478f, 0xf92c66eb3a271643},
		"barnes-hut":         {0x6226bbb4c30e5c0e, 0x93d29321c6eee850},
		"water-kernel":       {0x95888a43eab91b25, 0xbf84f8bbc9bb668d},
		"water-kernel-tiled": {0x95888a43eab91b25, 0xbf84f8bbc9bb668d},
		"lu":                 {0xad4ac61150059f25, 0xefa178905ca4b301},
		"serve":              {0x95888a43eab91b25, 0xaf3abb18d224f6e5},
		"syncbench":          {0xcbf29ce484222325, 0xcbf29ce484222325}, // no page touched
	}
	var rows []row
	for _, name := range AllAppNames {
		w, ok := want[name]
		if !ok {
			t.Fatalf("app %s has no recorded first-touch hash", name)
		}
		rows = append(rows,
			row{name, func() harness.App { return NewApp(name) }, harness.NewConfig(32, 4), w[0]},
			row{name + "-small", func() harness.App { return SmallApp(name) }, harness.NewConfig(8, 2), w[1]})
	}
	benchServe := serve.DefaultWorkload(false, 1)
	benchServe.NKeys = 4096
	rows = append(rows,
		row{"jacobi-access-stream", func() harness.App { return &apps.Jacobi{N: 512, Iters: 20} }, harness.NewConfig(32, 8, harness.WithTLBSize(256)), 0x3c6ed8bf8acfb815},
		row{"jacobi-scale-tiered", func() harness.App { return &apps.Jacobi{N: 1026, Iters: 1} },
			harness.NewConfig(1024, 4, harness.WithTopology(msg.NewTiered(0))), 0xdbcb831ab3612c07},
		row{"matmul-tlb-thrash", func() harness.App { return &apps.MatMul{N: 96} }, harness.NewConfig(32, 4), 0x75d8ec0b496e788e},
		row{"serve-sync-serve", func() harness.App { return apps.NewServe(benchServe) }, harness.NewConfig(32, 4), 0x5d76c38466903b05},
	)
	for _, r := range rows {
		m := harness.NewMachine(r.cfg)
		r.app().Setup(m)
		if got := homeFrameHash(m); got != r.want {
			t.Errorf("%s: home frames hash to %#x after Setup, want %#x: Setup touches its home pages in another order", r.name, got, r.want)
		}
	}
}

// homeFrameHash is FNV-1a over (page, home Frame.ID) of every page of
// m's shared space that has a home frame, in page order.
func homeFrameHash(m *harness.Machine) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (x >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	sp := m.DSM.Space()
	if sp.Brk() == 0 {
		return h
	}
	for v := vm.Page(0); v <= sp.PageOf(sp.Brk()-1); v++ {
		if id, ok := m.DSM.HomeFrameID(v); ok {
			mix(uint64(v))
			mix(id)
		}
	}
	return h
}
