package exp

import (
	"reflect"
	"strings"
	"testing"

	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/obs"
)

// The chaos suite's contract, pinned here: (1) every application
// survives the ISSUE's operating envelope (up to 5% loss, 2%
// duplication, plus delay-induced reordering) with final memory
// byte-identical to a fault-free run; (2) a faulted run is exactly as
// deterministic as a fault-free one — same (app, shape, seed) gives
// bit-identical results, counters, and traces, for any worker count;
// (3) an empty plan is a structural no-op.

// envelopePlan is the acceptance-envelope schedule: 5% loss, 2%
// duplication, 5% delayed.
func envelopePlan(seed uint64) fault.Plan {
	return fault.Plan{Seed: seed, DropBP: 500, DupBP: 200, DelayBP: 500}
}

func TestChaosSweepAllApps(t *testing.T) {
	pts, err := ChaosSweep(AppNames, []uint64{1, 2, 3}, 8, 2, envelopePlan, small)
	if err != nil {
		t.Fatal(err)
	}
	var dropped, retrans, suppressed int64
	for _, pt := range pts {
		if !pt.MemOK {
			t.Errorf("%s seed=%d: final memory diverges from fault-free run", pt.App, pt.Seed)
		}
		if !pt.Res.Fault.Active() {
			t.Errorf("%s seed=%d: no transport faults recorded — plan not attached?", pt.App, pt.Seed)
		}
		if pt.Slowdown() < 1.0 {
			t.Errorf("%s seed=%d: faulted run faster than baseline (%.3f) — recovery charged nothing?", pt.App, pt.Seed, pt.Slowdown())
		}
		dropped += pt.Res.Fault.Dropped
		retrans += pt.Res.Fault.Retransmits
		suppressed += pt.Res.Fault.DupSuppressed
	}
	// The envelope must actually exercise the machinery being tested.
	if dropped == 0 || retrans == 0 || suppressed == 0 {
		t.Errorf("envelope too soft: dropped=%d retrans=%d suppressed=%d, want all > 0", dropped, retrans, suppressed)
	}
}

// chaosTraceRun runs one faulted app with both the protocol and
// transport tracers attached and returns (result, full trace).
func chaosTraceRun(t *testing.T, name string, p, c int, plan fault.Plan) (harness.Result, string) {
	t.Helper()
	var b strings.Builder
	run := runOn(t, name, harness.NewConfig(p, c,
		harness.WithFaultPlan(plan),
		harness.WithObserver(obs.New().AddSink(obs.NewTextSink(&b)))))
	return run.res, b.String()
}

func TestChaosDeterministic(t *testing.T) {
	plan := envelopePlan(7)
	res1, tr1 := chaosTraceRun(t, "water", 8, 2, plan)
	res2, tr2 := chaosTraceRun(t, "water", 8, 2, plan)
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("faulted run not reproducible:\nrun1 %+v\nrun2 %+v", res1, res2)
	}
	if tr1 != tr2 {
		t.Fatalf("faulted traces diverge (%d vs %d bytes)", len(tr1), len(tr2))
	}
	// Different seeds must give different schedules (the trace includes
	// every injector decision).
	_, tr3 := chaosTraceRun(t, "water", 8, 2, envelopePlan(8))
	if tr1 == tr3 {
		t.Fatal("seeds 7 and 8 produced identical fault schedules")
	}
}

// TestChaosWorkerCountInvariance pins that chaos sweeps, like every
// other sweep, are a pure function of their inputs: any sweep width
// gives bit-identical points. Under -race this also exercises
// concurrent faulted simulations for shared-state races.
func TestChaosWorkerCountInvariance(t *testing.T) {
	var base []ChaosPoint
	for _, w := range []int{1, 4, 16} {
		got, err := ChaosSweep([]string{"jacobi", "water"}, []uint64{1, 2}, 8, 2, envelopePlan, smallAt(w))
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("chaos sweep depends on worker count (workers=%d)", w)
		}
	}
}

func TestZeroFaultEquivalenceAllApps(t *testing.T) {
	for _, name := range AppNames {
		if err := ZeroFaultEquivalence(name, 8, 2, small); err != nil {
			t.Error(err)
		}
	}
}
