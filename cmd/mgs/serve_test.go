package main

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mgs/internal/exp"
	"mgs/internal/harness"
	"mgs/internal/serve"
)

// keyPaths flattens a decoded JSON value into its set of key paths
// (arrays contribute their element shape once), the structural schema
// of the document.
func keyPaths(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			keyPaths(child, prefix+"."+k, out)
		}
	case []any:
		if len(x) == 0 {
			out[prefix+"[]"] = true
			return
		}
		keyPaths(x[0], prefix+"[]", out)
	default:
		out[prefix] = true
	}
}

func sortedPaths(data []byte, t *testing.T) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	m := map[string]bool{}
	keyPaths(v, "", m)
	paths := make([]string, 0, len(m))
	for p := range m {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// TestReportJSONSchema pins the mgs serve -json document's key paths:
// CI's smoke job and any downstream SLO tracking parse these names, so
// a rename or removal must be a deliberate, visible change here.
func TestReportJSONSchema(t *testing.T) {
	w := serve.DefaultWorkload(true, 1)
	rep, _, err := exp.ServeRun(w, harness.NewConfig(8, 2, harness.WithFaultPlan(exp.ServeChaosPlan(1))),
		serve.SLO{P99: 2_500_000, P999: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		".c", ".cycles", ".dropped_msgs", ".gets",
		".lock_hits", ".lock_total", ".p",
		".phases[].count", ".phases[].mean_cycles", ".phases[].p50_cycles",
		".phases[].p99_cycles", ".phases[].p999_cycles", ".phases[].phase",
		".phases[].slo_ok",
		".puts", ".requests", ".retransmits", ".scans",
		".seed", ".slo.p50", ".slo.p99", ".slo.p999", ".slo_ok", ".theta",
	}
	got := sortedPaths(out, t)
	// The SLO's omitempty fields only appear when set; normalize by
	// checking the set-fields run (p99, p999 set; p50 absent).
	wantSet := map[string]bool{}
	for _, p := range want {
		if p == ".slo.p50" {
			continue // unset in this run, omitted by omitempty
		}
		wantSet[p] = true
	}
	gotSet := map[string]bool{}
	for _, p := range got {
		gotSet[p] = true
	}
	if !reflect.DeepEqual(gotSet, wantSet) {
		t.Fatalf("mgs serve JSON schema drifted:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestBreakdownJSONSchema pins the -breakdown document: the same report
// shape plus the breakdown object. A plain run must NOT carry the
// breakdown key (omitempty — checked above); a profiled run adds
// exactly these paths.
func TestBreakdownJSONSchema(t *testing.T) {
	w := serve.DefaultWorkload(true, 1)
	rep, _, err := exp.ServeRunBreakdown(w, harness.NewConfig(8, 2, harness.WithFaultPlan(exp.ServeChaosPlan(1))),
		serve.SLO{P99: 2_500_000, P999: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breakdown == nil {
		t.Fatal("ServeRunBreakdown returned no breakdown")
	}
	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantExtra := map[string]bool{
		".breakdown.user_cycles":        true,
		".breakdown.lock_cycles":        true,
		".breakdown.barrier_cycles":     true,
		".breakdown.protocol_cycles":    true,
		".breakdown.transport_cycles":   true,
		".breakdown.per_request_cycles": true,
		".breakdown.hot_locks[].id":     true,
		".breakdown.hot_locks[].cycles": true,
	}
	got := map[string]bool{}
	for _, p := range sortedPaths(out, t) {
		if strings.HasPrefix(p, ".breakdown") {
			got[p] = true
		}
	}
	if !reflect.DeepEqual(got, wantExtra) {
		t.Fatalf("-breakdown JSON schema drifted:\ngot:  %v\nwant: %v", got, wantExtra)
	}
	if sum := rep.Breakdown.LockCycles + rep.Breakdown.BarrierCycles +
		rep.Breakdown.ProtocolCycles; sum <= 0 {
		t.Error("breakdown attributed no synchronization or protocol cycles")
	}
	if rep.Breakdown.TransportCycles <= 0 {
		t.Error("5%-loss run attributed no transport recovery cycles")
	}
	if len(rep.Breakdown.HotLocks) == 0 {
		t.Error("no per-lock attribution in a lock-heavy serving run")
	}
}

// TestCSVHeaderPinned pins the CSV column sets the same way.
func TestCSVHeaderPinned(t *testing.T) {
	wantReport := []string{
		"p", "c", "seed", "phase", "count",
		"mean_cycles", "p50_cycles", "p99_cycles", "p999_cycles",
		"lock_hits", "lock_total", "dropped_msgs", "retransmits", "slo_ok",
	}
	if !reflect.DeepEqual(serve.CSVHeader, wantReport) {
		t.Errorf("report CSV header drifted: %v", serve.CSVHeader)
	}
	wantSweep := []string{
		"p", "c", "variant", "phase", "count",
		"mean_cycles", "p50_cycles", "p99_cycles", "p999_cycles",
		"dropped_msgs", "retransmits", "mem_ok",
	}
	if !reflect.DeepEqual(exp.ServeTailCSVHeader, wantSweep) {
		t.Errorf("sweep CSV header drifted: %v", exp.ServeTailCSVHeader)
	}
	wantBreakdown := []string{"component", "cycles", "per_request_cycles"}
	if !reflect.DeepEqual(serve.BreakdownCSVHeader, wantBreakdown) {
		t.Errorf("breakdown CSV header drifted: %v", serve.BreakdownCSVHeader)
	}
}

// TestFlagParsers covers the -phases and -slo grammars.
func TestFlagParsers(t *testing.T) {
	w := serve.DefaultWorkload(true, 1)
	if err := applyPhases(&w, "steady:1000,flash:2000"); err != nil {
		t.Fatal(err)
	}
	if w.Phases[0].Cycles != 1000 || w.Phases[2].Cycles != 2000 {
		t.Errorf("phase durations not applied: %+v", w.Phases)
	}
	if err := applyPhases(&w, "nope:1"); err == nil {
		t.Error("unknown phase name accepted")
	}
	if err := applyPhases(&w, "steady"); err == nil {
		t.Error("missing duration accepted")
	}
	slo, err := parseSLO("p50:1,p99:2,p999:3")
	if err != nil || slo != (serve.SLO{P50: 1, P99: 2, P999: 3}) {
		t.Errorf("parseSLO = %+v, %v", slo, err)
	}
	if _, err := parseSLO("p98:5"); err == nil {
		t.Error("unknown quantile accepted")
	}
}
