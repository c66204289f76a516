package check

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mgs/internal/harness"
	"mgs/internal/sim"
)

// TestWorkloadsValid: every built-in workload obeys the structural
// rules the oracles rely on.
func TestWorkloadsValid(t *testing.T) {
	ws := Workloads()
	if len(ws) == 0 {
		t.Fatal("no built-in workloads")
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if got, ok := Lookup(w.Name); !ok || got.Name != w.Name {
			t.Errorf("Lookup(%q) failed", w.Name)
		}
	}
}

// TestDefaultChooserPreservesSchedule: installing the default chooser
// changes nothing — a workload runs to the identical cycle count and
// memory image as the chooser-free machine, so normal simulations keep
// their published numbers bit-for-bit.
func TestDefaultChooserPreservesSchedule(t *testing.T) {
	w, _ := Lookup("write-share")
	run := func(ch sim.Chooser) (sim.Time, []byte) {
		spec := NewSpec(w)
		m, rs, base := w.newMachine(spec, nil, false)
		if ch != nil {
			m.Eng.SetChooser(ch)
		}
		res, err := m.RunPer(func(i int) func(c *harness.Ctx) { return w.bodyFor(rs, base, i) })
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return res.Cycles, m.DSM.SnapshotMemory()
	}
	cyc0, mem0 := run(nil)
	cyc1, mem1 := run(sim.DefaultChooser{})
	if cyc0 != cyc1 {
		t.Fatalf("DefaultChooser changed the schedule: %d cycles vs %d", cyc1, cyc0)
	}
	if !reflect.DeepEqual(mem0, mem1) {
		t.Fatal("DefaultChooser changed the final memory image")
	}
}

// TestWriteShareExhaustive: the 2-proc/1-page write-share workload
// explores to fixpoint with no violation, and the exploration is
// deterministic — two invocations return the identical result.
func TestWriteShareExhaustive(t *testing.T) {
	w, _ := Lookup("write-share")
	r1, err := Explore(Options{Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Violation != nil {
		t.Fatalf("violation on the unmutated protocol: %v\ntrace: %+v", r1.Violation, r1.Violation.Trace)
	}
	if !r1.Complete {
		t.Fatalf("exploration did not reach fixpoint within default budgets: %+v", r1)
	}
	if r1.Runs < 2 || r1.MaxFanout < 2 {
		t.Fatalf("exploration did not branch (runs=%d maxFanout=%d) — chooser not engaged?", r1.Runs, r1.MaxFanout)
	}
	r2, err := Explore(Options{Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("exploration not deterministic:\n%+v\n%+v", r1, r2)
	}
}

// TestAllWorkloadsClean: every built-in workload is violation-free
// under a bounded exploration (full fixpoint for the small ones).
func TestAllWorkloadsClean(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := Explore(Options{Workload: w, MaxStates: 40000, MaxRuns: 8000})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("violation: %v\ntrace: %+v", res.Violation, res.Violation.Trace)
			}
			t.Logf("runs=%d states=%d choices=%d maxFanout=%d complete=%v",
				res.Runs, res.States, res.Choices, res.MaxFanout, res.Complete)
		})
	}
}

// TestMutationFound: re-introducing the stale-WNOTIFY bug (the PR 3
// phantom-write regression) with System.MutStaleWNotify, the explorer
// must find it on the upgrade-race workload and produce a counter-
// example trace that Replay reproduces identically. The trace is also
// pinned as a golden fixture so the counterexample stays replayable.
func TestMutationFound(t *testing.T) {
	w, _ := Lookup("upgrade-race")
	res, err := Explore(Options{Workload: w, Mutate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("explorer missed the seeded stale-WNOTIFY mutation (runs=%d states=%d complete=%v)",
			res.Runs, res.States, res.Complete)
	}
	v := res.Violation
	t.Logf("found after %d runs: %v", res.Runs, v)

	// The counterexample replays to the same violation.
	rv, err := Replay(v.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rv == nil {
		t.Fatal("replay of the counterexample was clean")
	}
	if rv.Kind != v.Kind || rv.Msg != v.Msg {
		t.Fatalf("replay diverged from the recorded violation:\n got %v\nwant %v", rv, v)
	}

	// Replay must be bit-identical run to run.
	rv2, err := Replay(v.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rv, rv2) {
		t.Fatalf("replay not deterministic:\n%v\n%v", rv, rv2)
	}

	// Golden fixture: the pinned counterexample still reproduces. (To
	// regenerate after an intentional trace-format or schedule change:
	// go test ./internal/check -run TestMutationFound -update)
	golden := filepath.Join("testdata", "stale_wnotify_counterexample.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := v.Trace.Save(golden); err != nil {
			t.Fatal(err)
		}
	}
	gt, err := LoadTrace(golden)
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update to regenerate): %v", err)
	}
	gv, err := Replay(gt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gv == nil {
		t.Fatal("golden counterexample no longer reproduces a violation")
	}
	if gv.Kind != gt.Kind || gv.Msg != gt.Violation {
		t.Fatalf("golden counterexample reproduces a different violation:\n got %v\nwant %s: %s", gv, gt.Kind, gt.Violation)
	}
}

// TestMutationOffClean: the same workload without the mutation is
// clean — the regression test's signal comes from the seeded bug, not
// from the workload.
func TestMutationOffClean(t *testing.T) {
	w, _ := Lookup("upgrade-race")
	res, err := Explore(Options{Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("violation without the mutation: %v\ntrace: %+v", res.Violation, res.Violation.Trace)
	}
	if !res.Complete {
		t.Fatalf("upgrade-race did not reach fixpoint: %+v", res)
	}
}

// TestTraceCarriesAlgorithms: a schedule explored under a non-default
// barrier is saved with the algorithms it ran under, so replaying the
// file alone — no -lock / -barrier — rebuilds the same machine: every
// recorded choice is consumed and the verdict is the same. The same
// file with the algorithms stripped replays a different machine, which
// is what every trace did before it recorded them.
func TestTraceCarriesAlgorithms(t *testing.T) {
	w, _ := Lookup("barrier-tree")
	w.Barrier = "dissemination" // what Options.Workload carries under mgs check -barrier
	first, err := execute(nil, w, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Branch off the default schedule at its last real choice, as the
	// explorer does, so the trace is not all zeros.
	d := len(first.steps) - 1
	for d >= 0 && first.steps[d].fanout < 2 {
		d--
	}
	if d < 0 {
		t.Fatal("workload never offered a choice")
	}
	rc, err := execute(nil, w, append(append([]int(nil), first.taken[:d]...), 1), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := rc.trace()
	if want.Barrier != "dissemination" {
		t.Fatalf("trace records barrier %q, ran under dissemination", want.Barrier)
	}

	path := filepath.Join(t.TempDir(), "cx.json")
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := loaded.replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.trace(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay from the file diverges:\n got %+v\nwant %+v", got, want)
	}

	loaded.Barrier = ""
	stripped, err := loaded.replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(stripped.trace().Labels, want.Labels) {
		t.Fatal("the schedule replays identically under the tree barrier: the workload does not tell the algorithms apart")
	}
}
