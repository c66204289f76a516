package exp

import (
	"testing"

	"mgs/internal/framework"
	"mgs/internal/harness"
	"mgs/internal/sim"
	"mgs/internal/stats"
)

// small is the test-scale run: reduced apps, no extra options, as many
// sweep workers as GOMAXPROCS.
var small = Env{Apps: SmallApp}

// smallAt is small at a fixed sweep width.
func smallAt(workers int) Env { return Env{Apps: SmallApp, Workers: workers} }

func TestTable3RunsAndIsOrdered(t *testing.T) {
	mi := Table3()
	if mi.ReadMiss <= mi.TLBFill {
		t.Errorf("read miss (%d) should exceed TLB fill (%d)", mi.ReadMiss, mi.TLBFill)
	}
	if mi.WriteMiss <= mi.ReadMiss {
		t.Errorf("write miss (%d) should exceed read miss (%d)", mi.WriteMiss, mi.ReadMiss)
	}
}

func TestTable4Small(t *testing.T) {
	rows, err := Table4(4, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AppNames) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Errorf("%s: speedup %v", r.App, r.Speedup)
		}
		// The regular apps must gain from 4 tightly-coupled processors.
		if r.App != "tsp" && r.Speedup < 1.5 {
			t.Errorf("%s: speedup %.2f on 4 procs, want >= 1.5", r.App, r.Speedup)
		}
	}
}

func TestFigureSweepSmall(t *testing.T) {
	points, m, err := FigureSweep("jacobi", 4, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 { // C = 1, 2, 4
		t.Fatalf("got %d points", len(points))
	}
	if m.BreakupPenalty < 0 {
		t.Errorf("negative breakup penalty %v", m.BreakupPenalty)
	}
	// Software DSM at C=1 cannot be faster than pure hardware at C=P.
	if points[0].Res.Cycles < points[2].Res.Cycles {
		t.Errorf("C=1 (%d) faster than C=P (%d)?", points[0].Res.Cycles, points[2].Res.Cycles)
	}
}

func TestLockHitSweepSmall(t *testing.T) {
	out, err := LockHitSweep([]string{"water"}, 4, small)
	if err != nil {
		t.Fatal(err)
	}
	pts := out["water"]
	if len(pts) != 2 { // C = 1, 2
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Ratio < 0 || p.Ratio > 1 {
			t.Errorf("C=%d ratio %v out of range", p.C, p.Ratio)
		}
	}
	// Hit ratio must grow with cluster size (Figure 11's headline).
	if pts[1].Ratio < pts[0].Ratio {
		t.Errorf("hit ratio fell with cluster size: %v", pts)
	}
}

func TestFig12Small(t *testing.T) {
	plain, tiled, err := Fig12(4, 64, small)
	if err != nil {
		t.Fatal(err)
	}
	// At C=1 the tiled kernel must win big (perfect multigrain
	// locality vs lock-churning page coherence).
	if tiled[0].Res.Cycles*2 > plain[0].Res.Cycles {
		t.Errorf("tiled C=1 (%d) not at least 2x faster than plain (%d)",
			tiled[0].Res.Cycles, plain[0].Res.Cycles)
	}
}

// TestAblationsSmall runs every two-sided ablation mgs sweep offers
// and checks what each comparison is known to show at test scale.
func TestAblationsSmall(t *testing.T) {
	// Each check sees one software-region point's baseline and
	// alternative cycles.
	checks := map[string]func(t *testing.T, c int, base, alt sim.Time){
		"serialinv": func(t *testing.T, c int, serial, par sim.Time) {
			// Serializing invalidations can never beat overlapping them.
			if serial < par {
				t.Errorf("C=%d: serial (%d) faster than parallel (%d)", c, serial, par)
			}
		},
		"mesh": func(t *testing.T, c int, uniform, mesh sim.Time) {
			if mesh == uniform {
				t.Errorf("C=%d: mesh timing identical to uniform (%d); topology had no effect", c, mesh)
			}
		},
		"lazy": func(t *testing.T, c int, eager, lazy sim.Time) {
			// Water's migratory locking is lazy's best case: it must win at C=1.
			if c == 1 && lazy >= eager {
				t.Errorf("C=1: lazy (%d) not faster than eager (%d)", lazy, eager)
			}
		},
	}
	for _, ab := range ablations {
		t.Run(ab.Name, func(t *testing.T) {
			app := "water"
			if ab.Name == "mesh" {
				app = "jacobi"
			}
			base, alt, err := AblationSweep(app, 4, ab.Alt, small)
			if err != nil {
				t.Fatal(err)
			}
			if len(base) != 2 || len(alt) != 2 { // C = 1, 2
				t.Fatalf("point counts = %d/%d, want 2/2", len(base), len(alt))
			}
			for i := range base {
				b, a := base[i].Res.Cycles, alt[i].Res.Cycles
				if b <= 0 || a <= 0 {
					t.Fatalf("C=%d: zero-cycle run", base[i].C)
				}
				if check := checks[ab.Name]; check != nil {
					check(t, base[i].C, b, a)
				}
			}
		})
	}
}

func TestAblationPageSizeSmall(t *testing.T) {
	pts, err := AblationPageSize("jacobi", 4, 2, []int{512, 1024, 2048}, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
}

func TestNewAppCoversAll(t *testing.T) {
	for _, n := range append(append([]string{}, AppNames...), "water-kernel", "water-kernel-tiled") {
		if NewApp(n) == nil || SmallApp(n) == nil {
			t.Fatalf("app %q missing", n)
		}
	}
}

var _ harness.App = (*nilApp)(nil)

type nilApp struct{}

func (*nilApp) Name() string                  { return "" }
func (*nilApp) Setup(*harness.Machine)        {}
func (*nilApp) Body(*harness.Ctx)             {}
func (*nilApp) Verify(*harness.Machine) error { return nil }

func TestFrameworkPointsMatchSweep(t *testing.T) {
	points, _, err := FigureSweep("matmul", 4, small)
	if err != nil {
		t.Fatal(err)
	}
	fp := FrameworkPoints(points)
	if len(fp) != len(points) {
		t.Fatalf("framework points = %d, sweep points = %d", len(fp), len(points))
	}
	for i := range fp {
		if fp[i].C != points[i].C || fp[i].Time != float64(points[i].Res.Cycles) {
			t.Fatalf("point %d mismatch: %+v vs %+v", i, fp[i], points[i])
		}
	}
}

func TestUnknownAppPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewApp of unknown name did not panic")
		}
	}()
	NewApp("no-such-app")
}

// TestHeadlineShapes pins the qualitative results the reproduction is
// about, at test scale (P=8, reduced inputs) with comfortable margins:
// which applications suffer crossing the hardware/software boundary,
// which run flat, and which runtime component dominates where. If a
// protocol change breaks one of the paper's figure shapes, this fails
// before any benchmark is run.
func TestHeadlineShapes(t *testing.T) {
	const p = 8
	sweepFor := func(name string) ([]harness.SweepPoint, framework.Metrics) {
		points, m, err := FigureSweep(name, p, small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return points, m
	}
	frac := func(pt harness.SweepPoint, cat stats.Category) float64 {
		return pt.Res.Breakdown.Avg[cat] / pt.Res.Breakdown.AvgTotal()
	}

	// Water (Figure 9): big breakup penalty, high multigrain potential,
	// synchronization + protocol dominated at C=1, monotone improvement.
	water, wm := sweepFor("water")
	if ratio := float64(water[0].Res.Cycles) / float64(water[len(water)-1].Res.Cycles); ratio < 3 {
		t.Errorf("water C1/CP = %.2f, want > 3 (large breakup penalty)", ratio)
	}
	if wm.MultigrainPotential < 0.5 {
		t.Errorf("water potential = %.2f, want > 0.5", wm.MultigrainPotential)
	}
	sync1 := frac(water[0], stats.Lock) + frac(water[0], stats.Barrier) + frac(water[0], stats.MGS)
	if sync1 < 0.6 {
		t.Errorf("water C=1 sync+MGS fraction = %.2f, want > 0.6", sync1)
	}
	for i := 1; i < len(water); i++ {
		if water[i].Res.Cycles > water[i-1].Res.Cycles {
			t.Errorf("water not monotone: C=%d (%d) > C=%d (%d)",
				water[i].C, water[i].Res.Cycles, water[i-1].C, water[i-1].Res.Cycles)
		}
	}

	// Matrix multiply (Figure 7): flat across the software region.
	matmul, _ := sweepFor("matmul")
	if ratio := float64(matmul[0].Res.Cycles) / float64(matmul[len(matmul)-1].Res.Cycles); ratio > 1.5 {
		t.Errorf("matmul C1/CP = %.2f, want < 1.5 (flat curve)", ratio)
	}

	// TSP (Figure 8): lock time is a major component at C=1 (the
	// centralized work queue's critical-section dilation).
	tsp, _ := sweepFor("tsp")
	if lf := frac(tsp[0], stats.Lock); lf < 0.3 {
		t.Errorf("tsp C=1 lock fraction = %.2f, want > 0.3", lf)
	}

	// Barnes-Hut (Figure 10): MGS protocol time dominates at C=1.
	barnes, _ := sweepFor("barnes-hut")
	if mf := frac(barnes[0], stats.MGS); mf < 0.4 {
		t.Errorf("barnes-hut C=1 MGS fraction = %.2f, want > 0.4", mf)
	}
}
