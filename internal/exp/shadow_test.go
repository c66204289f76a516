package exp

import (
	"testing"

	"mgs/internal/harness"
	"mgs/internal/sim"
	"mgs/internal/vm"
)

// TestLockedCounterShadow is a protocol torture test distilled from the
// histogram example: many counters packed on one page, each protected
// by its own MGS lock, hammered from every processor. Each locked
// read-modify-write is shadow-checked: the read must equal the last
// value written under that lock, so any stale read or lost merge fails
// immediately and deterministically.
func TestLockedCounterShadow(t *testing.T) {
	shapes := []struct{ p, c int }{{4, 2}, {8, 2}, {8, 4}, {16, 4}}
	for _, sh := range shapes {
		sh := sh
		t.Run("", func(t *testing.T) {
			const buckets = 32
			cfg := harness.NewConfig(sh.p, sh.c)
			m := harness.NewMachine(cfg)
			bins := m.DSM.Space().AllocPages(buckets * 8)
			shadow := make([]int64, buckets)
			_, err := m.Run(func(c *harness.Ctx) {
				for step := 0; step < 120; step++ {
					b := (step*7 + c.ID*13) % buckets
					addr := bins + vm.Addr(b*8)
					c.Acquire(1 + b)
					got := c.LoadI64(addr)
					if got != shadow[b] {
						t.Errorf("P=%d C=%d clk=%d proc=%d bucket %d: read %d, shadow %d",
							sh.p, sh.c, c.Clock(), c.ID, b, got, shadow[b])
					}
					shadow[b] = got + 1
					c.StoreI64(addr, got+1)
					c.Release(1 + b)
					c.Compute(50)
				}
				c.Barrier(0)
			})
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < buckets; b++ {
				if got := m.DSM.BackdoorLoad64(bins + vm.Addr(b*8)); int64(got) != shadow[b] {
					t.Errorf("P=%d C=%d bucket %d home = %d, shadow %d", sh.p, sh.c, b, got, shadow[b])
				}
			}
		})
	}
}

// TestHistogramShadow replays the customapp example's failing shape
// with shadow checks on every locked update.
func TestHistogramShadow(t *testing.T) {
	const items, buckets, p, c = 2048, 32, 8, 2
	cfg := harness.NewConfig(p, c)
	m := harness.NewMachine(cfg)
	val := func(i int) int64 { return int64((i*2654435761 + 12345) % 997) }
	data := m.DSM.Space().AllocPages(items * 8)
	for i := 0; i < items; i++ {
		m.DSM.BackdoorStore64(data+vm.Addr(i*8), uint64(val(i)))
	}
	bins := m.DSM.Space().AllocPages(buckets * 8)
	shadow := make([]int64, buckets)
	_, err := m.Run(func(ctx *harness.Ctx) {
		per := items / ctx.NProcs
		lo := ctx.ID * per
		for i := lo; i < lo+per; i++ {
			v := ctx.LoadI64(data + vm.Addr(i*8))
			b := int(v) * buckets / 997
			addr := bins + vm.Addr(b*8)
			ctx.Acquire(1 + b)
			got := ctx.LoadI64(addr)
			if got != shadow[b] {
				t.Errorf("clk=%d proc=%d bucket %d: read %d shadow %d", ctx.Clock(), ctx.ID, b, got, shadow[b])
			}
			shadow[b] = got + 1
			ctx.StoreI64(addr, got+1)
			ctx.Release(1 + b)
		}
		ctx.Barrier(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < buckets; b++ {
		if got := int64(m.DSM.BackdoorLoad64(bins + vm.Addr(b*8))); got != shadow[b] {
			t.Errorf("bucket %d home=%d shadow=%d", b, got, shadow[b])
		}
	}
}

// TestJitterTorture runs the app suite's two sharpest bug-finders under
// deterministic message jitter: arrival orders shuffle per seed, so
// protocol ordering assumptions that survive the default timing get
// hammered from many angles. Every seed must still verify.
func TestJitterTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := harness.NewConfig(8, 2)
		cfg.Msg.Jitter = 3000
		cfg.Msg.JitterSeed = seed
		if _, err := harness.RunApp(SmallApp("water"), cfg); err != nil {
			t.Errorf("water seed %d: %v", seed, err)
		}
		cfg2 := harness.NewConfig(8, 4)
		cfg2.Msg.Jitter = 3000
		cfg2.Msg.JitterSeed = seed
		if _, err := harness.RunApp(SmallApp("water-kernel"), cfg2); err != nil {
			t.Errorf("water-kernel seed %d: %v", seed, err)
		}
	}
}

// TestJitterLockedCounters runs the locked-counter torture under jitter.
func TestJitterLockedCounters(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		const buckets = 16
		cfg := harness.NewConfig(8, 2)
		cfg.Msg.Jitter = 2500
		cfg.Msg.JitterSeed = seed
		m := harness.NewMachine(cfg)
		bins := m.DSM.Space().AllocPages(buckets * 8)
		shadow := make([]int64, buckets)
		_, err := m.Run(func(c *harness.Ctx) {
			for step := 0; step < 60; step++ {
				b := (step*5 + c.ID*3) % buckets
				addr := bins + vm.Addr(b*8)
				c.Acquire(1 + b)
				got := c.LoadI64(addr)
				if got != shadow[b] {
					t.Errorf("seed %d clk=%d proc=%d bucket %d: read %d shadow %d", seed, c.Clock(), c.ID, b, got, shadow[b])
				}
				shadow[b] = got + 1
				c.StoreI64(addr, got+1)
				c.Release(1 + b)
				c.Compute(40)
			}
			c.Barrier(0)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpdateProtocolCorrectness runs the sharpest workloads under the
// update-based protocol variant: apps must still verify, and locked
// counters must never read stale values, with and without jitter.
func TestUpdateProtocolCorrectness(t *testing.T) {
	upd := func(p, c int, jitter int64) harness.Config {
		cfg := harness.NewConfig(p, c)
		cfg.Variant.UpdateProtocol = true
		cfg.Msg.Jitter = sim.Time(jitter)
		cfg.Msg.JitterSeed = 3
		return cfg
	}
	for _, sh := range []struct{ p, c int }{{4, 1}, {8, 2}, {8, 4}, {16, 4}} {
		if _, err := harness.RunApp(SmallApp("water"), upd(sh.p, sh.c, 0)); err != nil {
			t.Errorf("water P=%d C=%d: %v", sh.p, sh.c, err)
		}
		if _, err := harness.RunApp(SmallApp("water-kernel"), upd(sh.p, sh.c, 0)); err != nil {
			t.Errorf("water-kernel P=%d C=%d: %v", sh.p, sh.c, err)
		}
	}
	if _, err := harness.RunApp(SmallApp("barnes-hut"), upd(8, 2, 2000)); err != nil {
		t.Errorf("barnes-hut jitter: %v", err)
	}

	// Locked-counter shadow under the update protocol.
	const buckets = 16
	cfg := upd(8, 2, 1500)
	m := harness.NewMachine(cfg)
	bins := m.DSM.Space().AllocPages(buckets * 8)
	shadow := make([]int64, buckets)
	_, err := m.Run(func(c *harness.Ctx) {
		for step := 0; step < 80; step++ {
			b := (step*3 + c.ID*7) % buckets
			addr := bins + vm.Addr(b*8)
			c.Acquire(1 + b)
			got := c.LoadI64(addr)
			if got != shadow[b] {
				t.Errorf("clk=%d proc=%d bucket %d: read %d shadow %d", c.Clock(), c.ID, b, got, shadow[b])
			}
			shadow[b] = got + 1
			c.StoreI64(addr, got+1)
			c.Release(1 + b)
			c.Compute(60)
		}
		c.Barrier(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.Counter("upd.refresh") == 0 {
		t.Fatal("update protocol never refreshed a copy")
	}
}

// TestLazyReleaseShadow runs the locked-counter torture test under lazy
// release consistency, with and without message jitter: every locked
// read must see the last value written under that lock even though
// releases no longer invalidate anything — the acquire-side write
// notices must do all the work.
func TestLazyReleaseShadow(t *testing.T) {
	shapes := []struct {
		p, c   int
		jitter sim.Time
	}{{4, 2, 0}, {8, 2, 0}, {8, 4, 0}, {8, 2, 1500}, {16, 4, 900}}
	for _, sh := range shapes {
		sh := sh
		t.Run("", func(t *testing.T) {
			const buckets = 24
			cfg := harness.NewConfig(sh.p, sh.c)
			cfg.Variant.LazyRelease = true
			cfg.Msg.Jitter = sh.jitter
			cfg.Msg.JitterSeed = 23
			m := harness.NewMachine(cfg)
			bins := m.DSM.Space().AllocPages(buckets * 8)
			shadow := make([]int64, buckets)
			_, err := m.Run(func(c *harness.Ctx) {
				for step := 0; step < 100; step++ {
					b := (step*5 + c.ID*11) % buckets
					addr := bins + vm.Addr(b*8)
					c.Acquire(1 + b)
					got := c.LoadI64(addr)
					if got != shadow[b] {
						t.Errorf("P=%d C=%d j=%d clk=%d proc=%d bucket %d: read %d, shadow %d",
							sh.p, sh.c, sh.jitter, c.Clock(), c.ID, b, got, shadow[b])
					}
					shadow[b] = got + 1
					c.StoreI64(addr, got+1)
					c.Release(1 + b)
					c.Compute(50)
				}
				c.Barrier(0)
			})
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < buckets; b++ {
				if got := m.DSM.BackdoorLoad64(bins + vm.Addr(b*8)); int64(got) != shadow[b] {
					t.Errorf("bucket %d home = %d, shadow %d", b, got, shadow[b])
				}
			}
		})
	}
}

// TestLazyAppsVerify runs every application under lazy release
// consistency; each verifies its numeric result against the host
// reference, so a single stale read that matters fails the run.
func TestLazyAppsVerify(t *testing.T) {
	for _, name := range append(append([]string{}, AppNames...), "water-kernel-tiled", "lu") {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := harness.NewConfig(8, 2)
			cfg.Variant.LazyRelease = true
			if _, err := harness.RunApp(SmallApp(name), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}
