package exp

import (
	"bytes"
	"reflect"
	"testing"

	"mgs/internal/apps"
	"mgs/internal/harness"
	"mgs/internal/serve"
)

// The serving workload's determinism and chaos contracts, pinned at the
// report level: the latency report — quantiles included — must be
// identical across reruns and sweep worker counts at a fixed seed; and
// a 5%-loss run must end with the same memory as the fault-free run
// while measurably fattening the tail.

func serveSLO() serve.SLO { return serve.SLO{P99: 5_000_000, P999: 10_000_000} }

// TestServeRerunBitIdentical: same seed, same machine — same bytes.
func TestServeRerunBitIdentical(t *testing.T) {
	w := serve.DefaultWorkload(true, 7)
	rep1, mem1, err := ServeRun(w, harness.NewConfig(8, 2), serveSLO())
	if err != nil {
		t.Fatal(err)
	}
	rep2, mem2, err := ServeRun(w, harness.NewConfig(8, 2), serveSLO())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Errorf("rerun report diverges:\n%+v\nvs\n%+v", rep1, rep2)
	}
	if !bytes.Equal(mem1, mem2) {
		t.Error("rerun final memory diverges")
	}
}

// TestServeSweepWidthBitIdentical: the tail sweep's points must not
// depend on how many runs execute concurrently.
func TestServeSweepWidthBitIdentical(t *testing.T) {
	w := serve.DefaultWorkload(true, 5)
	run := func(workers int) []ServeTailPoint {
		points, err := ServeTailSweep(w, 8, serveSLO(), smallAt(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return points
	}
	seq := run(1)
	if par := run(4); !reflect.DeepEqual(par, seq) {
		t.Errorf("sweep workers=4 points diverge from sequential:\n%+v\nvs\n%+v", par, seq)
	}
}

// TestServeChaosMemEquivalentFatterTail: 5% loss may change when every
// request completes — and therefore the latency distribution — but
// never what the store holds at the end. The tail must actually move,
// or the chaos column in the sweep is measuring nothing.
func TestServeChaosMemEquivalentFatterTail(t *testing.T) {
	w := serve.DefaultWorkload(true, 9)
	clean, cleanMem, err := ServeRun(w, harness.NewConfig(8, 2), serveSLO())
	if err != nil {
		t.Fatal(err)
	}
	chaos, chaosMem, err := ServeRun(w, harness.NewConfig(8, 2, harness.WithFaultPlan(LossPlan(9))), serveSLO())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cleanMem, chaosMem) {
		t.Fatal("chaos final memory diverges from fault-free run")
	}
	if chaos.Dropped == 0 || chaos.Retransmit == 0 {
		t.Fatalf("chaos plan injected nothing (dropped=%d retransmits=%d)", chaos.Dropped, chaos.Retransmit)
	}
	var cleanSum, chaosSum float64
	for i := range clean.Phases {
		cleanSum += clean.Phases[i].Mean * float64(clean.Phases[i].Count)
		chaosSum += chaos.Phases[i].Mean * float64(chaos.Phases[i].Count)
	}
	if chaosSum <= cleanSum {
		t.Errorf("chaos run's total latency (%.0f) not above fault-free (%.0f); loss should cost cycles", chaosSum, cleanSum)
	}
	if chaos.Phases[0].P99 <= clean.Phases[0].P99 && chaos.Phases[2].P99 <= clean.Phases[2].P99 {
		t.Errorf("chaos p99 not fatter in any phase: steady %.0f<=%.0f, flash %.0f<=%.0f",
			chaos.Phases[0].P99, clean.Phases[0].P99, chaos.Phases[2].P99, clean.Phases[2].P99)
	}
}

// TestServeVerifyCatchesCorruption pins that the app's Verify is not
// vacuous: a store whose final state was tampered with must fail.
func TestServeVerifyCatchesCorruption(t *testing.T) {
	w := serve.DefaultWorkload(true, 1)
	app := apps.NewServe(w)
	cfg := harness.NewConfig(8, 2)
	m := harness.NewMachine(cfg)
	app.Setup(m)
	if _, err := m.Run(app.Body); err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(m); err != nil {
		t.Fatalf("clean run failed verify: %v", err)
	}
	app.Store().Corrupt(m, 0)
	if err := app.Verify(m); err == nil {
		t.Fatal("verify passed after store corruption")
	}
}
