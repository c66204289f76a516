package harness

import (
	"reflect"
	"strings"
	"testing"

	"mgs/internal/fault"
	"mgs/internal/msync/algo"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
	"mgs/internal/vm"
)

func testCfg(p, c int) Config {
	return NewConfig(p, c, WithInterSSMPDelay(500))
}

func TestCtxLoadStoreRoundTrips(t *testing.T) {
	m := NewMachine(testCfg(4, 2))
	va := m.Alloc(4096)
	_, err := m.Run(func(c *Ctx) {
		if c.ID == 0 {
			c.StoreF64(va, 3.25)
			c.StoreI64(va+8, -42)
			c.StoreF64Ptr(va+16, 1.5)
			c.StoreI64Ptr(va+24, 7)
			c.StorePtr(va+32, 0xdeadbeef)
			c.Fence()
		}
		c.Barrier(0)
		if c.ID == 3 { // other SSMP: full inter-SSMP fetch path
			if got := c.LoadF64(va); got != 3.25 {
				t.Errorf("LoadF64 = %v", got)
			}
			if got := c.LoadI64(va + 8); got != -42 {
				t.Errorf("LoadI64 = %v", got)
			}
			if got := c.LoadF64Ptr(va + 16); got != 1.5 {
				t.Errorf("LoadF64Ptr = %v", got)
			}
			if got := c.LoadI64Ptr(va + 24); got != 7 {
				t.Errorf("LoadI64Ptr = %v", got)
			}
			if got := c.LoadPtr(va + 32); got != 0xdeadbeef {
				t.Errorf("LoadPtr = %#x", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPtrTranslationCostsMore(t *testing.T) {
	// §4.2.1: pointer dereferences pay 24 cycles of translation versus
	// 18 for array references. Same access sequence, pointer variant
	// must finish strictly later.
	run := func(ptr bool) int64 {
		m := NewMachine(testCfg(1, 1))
		va := m.Alloc(4096)
		res, err := m.Run(func(c *Ctx) {
			for i := 0; i < 50; i++ {
				if ptr {
					c.StorePtr(va, uint64(i))
				} else {
					c.StoreI64(va, int64(i))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Cycles)
	}
	arr, ptr := run(false), run(true)
	if ptr <= arr {
		t.Fatalf("pointer run %d cycles <= array run %d", ptr, arr)
	}
	// 6 extra cycles per access, plus the fault path's one retried
	// translation on the first touch.
	if d := ptr - arr; d < 50*6 || d > 50*6+12 {
		t.Fatalf("translation delta = %d, want ~%d", d, 50*6)
	}
}

func TestComputeChargesUserTime(t *testing.T) {
	m := NewMachine(testCfg(2, 2))
	res, err := m.Run(func(c *Ctx) {
		c.Compute(10_000)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Avg[stats.User] < 10_000 {
		t.Fatalf("User avg = %v, want >= 10000", res.Breakdown.Avg[stats.User])
	}
	if res.Cycles < 10_000 {
		t.Fatalf("Cycles = %v", res.Cycles)
	}
}

func TestBackdoorRoundTrip(t *testing.T) {
	m := NewMachine(testCfg(2, 2))
	va := m.Alloc(4096)
	m.SetF64(va, -0.5)
	m.SetI64(va+8, 1<<40)
	if got := m.GetF64(va); got != -0.5 {
		t.Fatalf("GetF64 = %v", got)
	}
	if got := m.GetI64(va + 8); got != 1<<40 {
		t.Fatalf("GetI64 = %v", got)
	}
}

func TestAllocPageAlignedAndDisjoint(t *testing.T) {
	m := NewMachine(testCfg(2, 2))
	a := m.Alloc(100)
	b := m.Alloc(100)
	ps := vm.Addr(m.Cfg.PageSize)
	if a%ps != 0 || b%ps != 0 {
		t.Fatalf("allocations not page aligned: %#x %#x", a, b)
	}
	if b < a+ps {
		t.Fatalf("page allocations overlap: %#x %#x", a, b)
	}
}

func TestAllocPackedSharesPages(t *testing.T) {
	m := NewMachine(testCfg(2, 2))
	a := m.AllocPacked(8, 8)
	b := m.AllocPacked(8, 8)
	if m.DSM.Space().PageOf(a) != m.DSM.Space().PageOf(b) {
		t.Fatalf("packed allocations on different pages: %#x %#x", a, b)
	}
	if b != a+8 {
		t.Fatalf("packed allocation not adjacent: %#x then %#x", a, b)
	}
}

func TestAllocHomedPlacesPages(t *testing.T) {
	m := NewMachine(testCfg(8, 2))
	n := 4 * m.Cfg.PageSize
	va := m.AllocHomed(n, func(page int) int { return page * 2 })
	sp := m.DSM.Space()
	for i := 0; i < 4; i++ {
		pg := sp.PageOf(va + vm.Addr(i*m.Cfg.PageSize))
		if home := sp.HomeProc(pg); home != i*2 {
			t.Fatalf("page %d homed at proc %d, want %d", i, home, i*2)
		}
	}
	// homeOf values beyond P wrap.
	va2 := m.AllocHomed(m.Cfg.PageSize, func(int) int { return 13 })
	if home := sp.HomeProc(sp.PageOf(va2)); home != 13%8 {
		t.Fatalf("wrapped home = %d, want %d", home, 13%8)
	}
}

func TestRunPerDistinctBodies(t *testing.T) {
	m := NewMachine(testCfg(4, 2))
	va := m.Alloc(4096)
	_, err := m.RunPer(func(i int) func(*Ctx) {
		return func(c *Ctx) {
			c.StoreI64(va+vm.Addr(c.ID*8), int64(100+c.ID))
			c.Fence()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := m.GetI64(va + vm.Addr(i*8)); got != int64(100+i) {
			t.Fatalf("proc %d slot = %d", i, got)
		}
	}
}

func TestMachineRunsOnce(t *testing.T) {
	m := NewMachine(testCfg(2, 2))
	if _, err := m.Run(func(*Ctx) {}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	m.Run(func(*Ctx) {})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := NewMachine(testCfg(4, 2))
	after := make([]int64, 4)
	_, err := m.Run(func(c *Ctx) {
		if c.ID == 0 {
			c.Compute(200_000) // straggler
		}
		c.Barrier(0)
		after[c.ID] = int64(c.Clock())
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range after {
		if v < 200_000 {
			t.Fatalf("proc %d left barrier at %d, before straggler arrived", i, v)
		}
	}
}

func TestLockMutualExclusionThroughHarness(t *testing.T) {
	const per = 20
	m := NewMachine(testCfg(8, 2))
	va := m.Alloc(4096)
	_, err := m.Run(func(c *Ctx) {
		for i := 0; i < per; i++ {
			c.Acquire(3)
			c.StoreI64(va, c.LoadI64(va)+1)
			c.Release(3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.GetI64(va); got != 8*per {
		t.Fatalf("locked counter = %d, want %d", got, 8*per)
	}
}

// TestAttributionCoversRuntime checks the accounting invariant behind
// Figures 6-10: every processor's busy cycles land in exactly one of
// the four categories, so the per-processor category sum must track the
// parallel runtime (within the slack of final-barrier skew).
func TestAttributionCoversRuntime(t *testing.T) {
	m := NewMachine(testCfg(8, 2))
	va := m.Alloc(8 * 4096)
	res, err := m.Run(func(c *Ctx) {
		for i := 0; i < 3; i++ {
			c.Compute(5000)
			c.Acquire(1)
			c.StoreI64(va, c.LoadI64(va)+1)
			c.Release(1)
			c.StoreF64(va+vm.Addr((1+c.ID)*4096), float64(i))
			c.Barrier(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Breakdown.AvgTotal()
	ratio := total / float64(res.Cycles)
	t.Logf("avg attributed %.0f of %d cycles (%.2f)", total, res.Cycles, ratio)
	// Protocol handler occupancy is charged to MGS even when it lands on
	// a processor whose wait is simultaneously charged to Lock/Barrier
	// (the paper's accounting does the same), so mild over-attribution
	// is expected; large deviation either way means lost or
	// double-counted cycles.
	if ratio < 0.85 || ratio > 1.30 {
		t.Fatalf("attribution ratio %.3f outside [0.85, 1.30]", ratio)
	}
	for _, cat := range []stats.Category{stats.User, stats.Lock, stats.Barrier, stats.MGS} {
		if res.Breakdown.Avg[cat] <= 0 {
			t.Fatalf("category %s empty; workload exercises all four", cat)
		}
	}
}

func TestPowersOfTwo(t *testing.T) {
	got := PowersOfTwo(16)
	want := []int{1, 2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("PowersOfTwo(16) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PowersOfTwo(16) = %v", got)
		}
	}
	if one := PowersOfTwo(1); len(one) != 1 || one[0] != 1 {
		t.Fatalf("PowersOfTwo(1) = %v", one)
	}
}

func TestSweepPointsPerClusterSize(t *testing.T) {
	app := func() App { return sweepProbe{} }
	pts, err := Sweep(0, app, PowersOfTwo(4), func(c int) Config { return testCfg(4, c) })
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	for i, c := range []int{1, 2, 4} {
		if pts[i].C != c || pts[i].Res.Cycles == 0 {
			t.Fatalf("point %d = C%d/%d cycles", i, pts[i].C, pts[i].Res.Cycles)
		}
	}
}

// sweepProbe is a minimal App for sweep mechanics tests.
type sweepProbe struct{}

func (sweepProbe) Name() string          { return "probe" }
func (sweepProbe) Setup(m *Machine)      { m.Alloc(4096) }
func (sweepProbe) Body(c *Ctx)           { c.Compute(1000); c.Barrier(0) }
func (sweepProbe) Verify(*Machine) error { return nil }

// TestBadConfigIsAnErrorNotAPanic: an unknown algorithm name, a shape
// that does not divide into SSMPs, a size the substrate cannot build
// (cache geometry included: the cache model masks where it divided; a
// machine, TLB, page or cache too large to allocate on the host), a
// self-contradictory protocol variant, an out-of-range fault plan or a
// trace sink that would panic on its first event comes back from RunApp/RunAppMem as an error that says what would
// have been accepted, and NewMachine panics with that same message
// before constructing anything.
func TestBadConfigIsAnErrorNotAPanic(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want []string
	}{
		{"lock", NewConfig(4, 2, WithLockAlgo("spin")), append([]string{"unknown lock algorithm spin"}, algo.LockNames()...)},
		{"barrier", NewConfig(4, 2, WithBarrierAlgo("butterfly")), append([]string{"unknown barrier algorithm butterfly"}, algo.BarrierNames()...)},
		{"shape", NewConfig(6, 4), []string{"P=6 C=4"}},
		{"pagesize-not-pow2", NewConfig(4, 2, WithPageSize(1000)), []string{"page size 1000", "power of two"}},
		{"pagesize-zero", NewConfig(4, 2, WithPageSize(0)), []string{"page size 0"}},
		{"pagesize-below-line", NewConfig(4, 2, WithPageSize(4)), []string{"page size 4", "16-byte cache line"}},
		{"line-not-pow2", NewConfig(4, 2, func(c *Config) { c.CacheHW.LineSize = 24 }), []string{"cache line size 24", "power of two"}},
		{"cache-not-pow2", NewConfig(4, 2, func(c *Config) { c.CacheHW.CacheBytes = 48 << 10 }), []string{"cache size 49152", "power of two"}},
		{"cache-below-line", NewConfig(4, 2, func(c *Config) { c.CacheHW.CacheBytes = 8 }), []string{"cache size 8", "16-byte line"}},
		{"hw-pointers-zero", NewConfig(4, 2, func(c *Config) { c.CacheHW.HWPointers = 0 }), []string{"pointer count 0", "at least 1"}},
		{"tlbsize", NewConfig(4, 2, WithTLBSize(0)), []string{"TLB size 0"}},
		{"tlbsize-huge", NewConfig(8, 2, WithTLBSize(1<<40)), []string{"TLB size 1099511627776", "at most 65536", "allocated whole"}},
		{"pagesize-huge", NewConfig(8, 2, WithPageSize(1<<40)), []string{"page size 1099511627776", "at most 65536", "allocated whole"}},
		{"procs-huge", NewConfig(1<<40, 2), []string{"processor count 1099511627776", "at most 4096", "allocated on the host"}},
		{"cache-huge", NewConfig(8, 2, func(c *Config) { c.CacheHW.CacheBytes = 1 << 40 }), []string{"cache size 1099511627776", "at most 1048576", "cache table"}},
		{"delay", NewConfig(4, 2, WithInterSSMPDelay(-5)), []string{"delay -5"}},
		{"lazy-update", NewConfig(4, 2, func(c *Config) { c.Variant.LazyRelease, c.Variant.UpdateProtocol = true, true }), []string{"lazy release", "update protocol"}},
		{"fault-negative-rate", NewConfig(4, 2, WithFaultPlan(fault.Plan{DropBP: -5})), []string{"drop=-5", "0 to 10000"}},
		{"fault-rate-above-10000", NewConfig(4, 2, WithFaultPlan(fault.Plan{DupBP: 20000})), []string{"dup=20000", "0 to 10000"}},
		{"fault-drop-everything", NewConfig(4, 2, WithFaultPlan(fault.Plan{DropBP: 10000})), []string{"drop rate 10000", "ever arrive"}},
		{"fault-negative-maxdelay", NewConfig(4, 2, WithFaultPlan(fault.Plan{DelayBP: 500, MaxDelay: -5})), []string{"max delay -5"}},
		{"sink-nil", NewConfig(4, 2, WithObserver(obs.New().AddSink(nil))), []string{"trace sink 0", "nil sink"}},
		{"sink-text-nil-writer", NewConfig(4, 2, WithObserver(obs.New().AddSink(&obs.MemSink{}).AddSink(obs.NewTextSink(nil)))), []string{"trace sink 1", "text sink with a nil writer"}},
		{"sink-filter-nil-predicate", NewConfig(4, 2, WithObserver(obs.New().AddSink(obs.Filter(&obs.MemSink{}, nil)))), []string{"trace sink 0", "filter sink with a nil predicate"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunApp(sweepProbe{}, tc.cfg)
			_, _, errMem := RunAppMem(sweepProbe{}, tc.cfg)
			if err == nil || errMem == nil || err.Error() != errMem.Error() {
				t.Fatalf("RunApp err = %v, RunAppMem err = %v; want the same non-nil error", err, errMem)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
			defer func() {
				if r, _ := recover().(string); r != "harness: "+tc.cfg.Validate().Error() {
					t.Errorf("NewMachine panic = %q, want the Validate message", r)
				}
			}()
			NewMachine(tc.cfg)
		})
	}
}

// TestNilAppIsAnErrorNotAPanic: RunApp and RunAppMem reject a nil app
// before anything else, with a valid configuration or an invalid one
// (whose Validate error would otherwise be wrapped with the app's name).
func TestNilAppIsAnErrorNotAPanic(t *testing.T) {
	for _, cfg := range []Config{NewConfig(4, 2), NewConfig(3, 2)} {
		_, err := RunApp(nil, cfg)
		_, _, errMem := RunAppMem(nil, cfg)
		for _, e := range []error{err, errMem} {
			if e == nil || !strings.Contains(e.Error(), "nil app") {
				t.Errorf("P=%d C=%d: err = %v, want the nil-app error", cfg.P, cfg.C, e)
			}
		}
	}
}

// panicProbe is sweepProbe with a body that fails on processor 1.
type panicProbe struct{ sweepProbe }

func (panicProbe) Body(c *Ctx) {
	c.Compute(1000)
	if c.ID == 1 {
		panic("app bug on processor 1")
	}
	c.Barrier(0)
}

// TestBodyPanicUnwindsToTheCaller: a panic in an application body comes
// out of RunApp on the caller's goroutine, where a sweep runner or a
// test can recover it and name the run, instead of killing the process
// from a processor goroutine nobody can reach.
func TestBodyPanicUnwindsToTheCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "app bug on processor 1" {
			t.Fatalf("recovered %v, want the body's panic value", r)
		}
	}()
	_, err := RunApp(panicProbe{}, NewConfig(4, 2))
	t.Fatalf("RunApp returned (%v); the body's panic should have unwound through it", err)
}

// TestEmptyAlgoNamesSelectTheDefaults: "" and the default names are the
// same registered algorithms, so a machine built either way is the same
// machine: it resolves the same names and runs a lock and a barrier to
// the same Result.
func TestEmptyAlgoNamesSelectTheDefaults(t *testing.T) {
	run := func(lock, barrier string) (Config, Result) {
		m := NewMachine(NewConfig(4, 2, WithLockAlgo(lock), WithBarrierAlgo(barrier)))
		res, err := m.RunPer(func(i int) func(*Ctx) {
			return func(ctx *Ctx) {
				ctx.Compute(sim.Time(100 * (i + 1)))
				ctx.Acquire(0)
				ctx.Compute(50)
				ctx.Release(0)
				ctx.Barrier(0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Cfg, res
	}
	unset, unsetRes := run("", "")
	named, namedRes := run("token", "tree")
	if unset.LockAlgo != named.LockAlgo || unset.BarrierAlgo != named.BarrierAlgo {
		t.Fatalf("unset resolves to %s/%s, named to %s/%s", unset.LockAlgo, unset.BarrierAlgo, named.LockAlgo, named.BarrierAlgo)
	}
	if !reflect.DeepEqual(unsetRes, namedRes) {
		t.Fatalf("unset algorithms ran to %+v, token/tree to %+v", unsetRes, namedRes)
	}
}

// TestInterDelayIsOneField: the LAN latency lives in Msg.InterDelay alone,
// so writing it on a built Config is WithInterSSMPDelay, not the default.
func TestInterDelayIsOneField(t *testing.T) {
	cycles := func(cfg Config) int64 {
		m := NewMachine(cfg)
		va := m.Alloc(4096)
		res, err := m.Run(func(c *Ctx) { c.LoadI64(va) }) // one SSMP fetches the page across the LAN
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Cycles)
	}
	written := NewConfig(4, 2)
	written.Msg.InterDelay = 5000
	byField, byOption, byDefault := cycles(written), cycles(NewConfig(4, 2, WithInterSSMPDelay(5000))), cycles(NewConfig(4, 2))
	if byField != byOption || byField == byDefault {
		t.Fatalf("cycles: Msg.InterDelay=5000 %d, WithInterSSMPDelay(5000) %d, default %d; want equal, equal, different", byField, byOption, byDefault)
	}
}
