package exp

import (
	"io"
	"reflect"
	"testing"

	"mgs/internal/core"
	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/obs"
)

// The sweeps must be bit-for-bit reproducible: rerunning a sweep gives
// identical per-point cycle counts and breakdowns, and running points
// concurrently gives exactly what the sequential loop gives. Anything
// less means host-side scheduling leaked into simulated time.

func TestFigureSweepReproducible(t *testing.T) {
	a, ma, err := FigureSweep("jacobi", 8, small)
	if err != nil {
		t.Fatal(err)
	}
	b, mb, err := FigureSweep("jacobi", 8, small)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep not reproducible:\nrun1 %+v\nrun2 %+v", a, b)
	}
	if !reflect.DeepEqual(ma, mb) {
		t.Fatalf("framework metrics not reproducible: %+v vs %+v", ma, mb)
	}
}

// TestSweepWorkerCountInvariance pins the worker-pool contract that
// nogoroutine's sanctioned harness.RunIndexed entry relies on: the
// pool's output is a pure function of the inputs, identical for any
// width. Width 1 runs the points inline on this goroutine, one at a
// time, and is the reference the concurrent widths must match. Run
// under -race (CI does) it also exercises the pool for data races at
// several fan-out widths.
func TestSweepWorkerCountInvariance(t *testing.T) {
	mk := func() harness.App { return SmallApp("water") }
	cfgFor := func(c int) harness.Config { return harness.NewConfig(8, c) }
	cs := harness.PowersOfTwo(8)

	var base []harness.SweepPoint
	for _, w := range []int{1, 4, 16} {
		got, err := harness.Sweep(w, mk, cs, cfgFor)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("sweep output depends on width:\nwidth 1  %+v\nwidth %d %+v", base, w, got)
		}
	}
}

func TestTable4Reproducible(t *testing.T) {
	a, err := Table4(4, smallAt(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table4(4, smallAt(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Table 4 depends on worker count:\npar %+v\nseq %+v", a, b)
	}
}

// TestObserversDoNotPerturbRun: arming an instrument changes what is
// recorded about a run, never the run — no observer, a metrics-only
// observer, a text tracer and the cycle profiler all yield the same
// Result. The machines reach every emitter: the protocol engines (the
// default and the lazy and update variants), the reliable transport (a
// drop plan) and the lock/barrier zoo through algo.Env (mcs and
// dissemination). An emit site that changes state only while tracing
// fails here, naming the machine.
func TestObserversDoNotPerturbRun(t *testing.T) {
	observers := map[string]func() *obs.Observer{
		"metrics":  obs.New,
		"tracer":   func() *obs.Observer { return obs.New().AddSink(obs.NewTextSink(io.Discard)) },
		"profiler": func() *obs.Observer { return obs.New().EnableProfiling() },
	}
	machines := []struct {
		name string
		opts []harness.Option
	}{
		{"default", nil},
		{"fault", []harness.Option{harness.WithFaultPlan(fault.Plan{Seed: 1, DropBP: 500})}},
		{"zoo", []harness.Option{harness.WithLockAlgo("mcs"), harness.WithBarrierAlgo("dissemination")}},
		{core.VariantLazy, variant(core.VariantLazy)},
		{core.VariantUpdate, variant(core.VariantUpdate)},
	}
	for _, m := range machines {
		for _, name := range []string{"jacobi", "water"} {
			bare, err := harness.RunApp(SmallApp(name), harness.NewConfig(8, 2, m.opts...))
			if err != nil {
				t.Fatalf("%s/%s: %v", m.name, name, err)
			}
			for armed, mk := range observers {
				cfg := harness.NewConfig(8, 2, m.opts...)
				cfg.Obs = mk()
				res, err := harness.RunApp(SmallApp(name), cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", m.name, name, armed, err)
				}
				if !reflect.DeepEqual(bare, res) {
					t.Errorf("%s/%s: %s observer perturbs the run\nbare:  %+v\narmed: %+v", m.name, name, armed, bare, res)
				}
			}
		}
	}
}
