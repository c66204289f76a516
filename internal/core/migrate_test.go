package core

import (
	"testing"

	"mgs/internal/sim"
	"mgs/internal/vm"
)

// TestHomeMigrationFollowsDominantUser: a page homed in SSMP 0 but used
// exclusively by SSMP 1 should migrate there once the streak threshold
// is met, after which the user's faults are served home-locally.
func TestHomeMigrationFollowsDominantUser(t *testing.T) {
	tm := buildTest(4, 2, 1000, func(cfg *Config) {
		cfg.Variant.MigrateAfter = 3
		// Disable retention so each release tears the copy down and the
		// refetch stream is visible to the migration heuristic.
		cfg.Variant.SingleWriter = false
	})
	va := tm.sys.Space().AllocPages(1024) // page 1, home proc 1 (SSMP 0)
	page := tm.sys.Space().PageOf(va)
	tm.bodies[2] = func(p *sim.Proc) { // SSMP 1, the dominant user
		for k := 0; k < 8; k++ {
			store64(tm.sys, p, va+8, uint64(k+1))
			tm.sys.ReleaseAll(p) // teardown: next touch refetches
			p.Sleep(50_000)
		}
	}
	tm.run(t)
	if got := tm.st.Counter("migrate"); got != 1 {
		t.Fatalf("migrations = %d, want 1", got)
	}
	if home := tm.sys.Space().HomeProc(page); home/2 != 1 {
		t.Fatalf("page home proc %d, want in SSMP 1", home)
	}
	if got := tm.sys.BackdoorLoad64(va + 8); got != 8 {
		t.Fatalf("home data = %d, want 8", got)
	}
	// After migration the user's serves are home-local.
	if tm.st.Counter("rdat.home") == 0 {
		t.Fatal("no home-local serves after migration")
	}
}

// TestHomeMigrationKeepsDataCorrect hammers a migrating page from two
// SSMPs with releases; every write must survive every migration.
func TestHomeMigrationKeepsDataCorrect(t *testing.T) {
	tm := buildTest(6, 2, 800, func(cfg *Config) {
		cfg.Variant.MigrateAfter = 2
		cfg.Variant.SingleWriter = false
	})
	va := tm.sys.Space().AllocPages(1024)
	want := map[int]uint64{}
	for _, pr := range []int{0, 2, 4} {
		pr := pr
		tm.bodies[pr] = func(p *sim.Proc) {
			for k := 0; k < 12; k++ {
				v := uint64(pr*100 + k)
				store64(tm.sys, p, va+vm2(pr), v)
				want[pr] = v
				tm.sys.ReleaseAll(p)
				p.Sleep(sim.Time(20_000 + pr*7000))
			}
		}
	}
	tm.run(t)
	for _, pr := range []int{0, 2, 4} {
		if got := tm.sys.BackdoorLoad64(va + vm2(pr)); got != want[pr] {
			t.Fatalf("proc %d word = %d, want %d", pr, got, want[pr])
		}
	}
	t.Logf("migrations: %d", tm.st.Counter("migrate"))
}

func vm2(pr int) vm.Addr { return vm.Addr(8 * (pr + 1)) }

// TestHomeMigrationWaitsForHomeFault: a release round that would
// migrate the page completes while a processor of the home SSMP is
// mid-upgrade on it (page-table lock held, UP_ACK in flight). Migrating
// then tore the home mapping down under the upgrade, whose UP_ACK went
// on to map a frameless page — a nil dereference on the next access
// with MigrateAfter = 1. The upgrade's start is swept across the
// round, so some runs migrate and some must hold off; all keep every
// write.
func TestHomeMigrationWaitsForHomeFault(t *testing.T) {
	migrated := map[int64]int{}
	for off := sim.Time(0); off < 40_000; off += 25 {
		tm := buildTest(4, 2, 1000, func(cfg *Config) {
			cfg.Variant.MigrateAfter = 1
			cfg.Variant.SingleWriter = false
		})
		va := tm.sys.Space().AllocPages(1024) // page 1, home proc 1 (SSMP 0)
		// SSMP 1: one serve, then the round that would migrate.
		tm.bodies[2] = func(p *sim.Proc) {
			store64(tm.sys, p, va+8, 7)
			tm.sys.ReleaseAll(p)
		}
		// Home SSMP: a read copy, then the upgrade.
		tm.bodies[0] = func(p *sim.Proc) {
			load64(tm.sys, p, va)
			p.Sleep(off)
			store64(tm.sys, p, va+16, 9)
			store64(tm.sys, p, va+24, 10)
			tm.sys.ReleaseAll(p)
		}
		tm.run(t)
		for i, want := range []uint64{7, 9, 10} {
			if got := tm.sys.BackdoorLoad64(va + vm.Addr(8*(i+1))); got != want {
				t.Fatalf("upgrade at +%d: word %d = %d, want %d", off, i+1, got, want)
			}
		}
		migrated[tm.st.Counter("migrate")]++
	}
	if migrated[0] == 0 || migrated[0] == 40_000/25 {
		t.Fatalf("runs by migration count = %v, want some that held off (0) and some that migrated", migrated)
	}
}
