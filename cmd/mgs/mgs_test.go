package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mgs/internal/exp"
	"mgs/internal/serve"
)

// mgs runs one command line in-process.
func mgs(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// TestCSVHeaderOfEveryMode pins the column set of every CSV-emitting mode:
// plotting scripts and CI parse these names, so a rename or removal
// must be a deliberate, visible change here.
func TestCSVHeaderOfEveryMode(t *testing.T) {
	for _, tc := range []struct {
		args   string
		line   int // 0-based stdout line the header is on
		header string
	}{
		{"sweep -app water -small -p 8 -csv", 0, "app,c,cycles,user,lock,barrier,mgs"},
		{"sweep -table4 -small -p 4 -csv", 0, "app,seq_cycles,par_cycles,speedup"},
		{"sweep -fig11 -small -p 8 -csv", 0, "app,c,hit_ratio"},
		{"sweep -fig12 -p 4 -csv", 0, "variant,c,cycles"},
		// A two-sided ablation titles its table, CSV or not.
		{"sweep -ablation 1writer -app water -small -p 8 -csv", 1, "c,with,without"},
		{"sweep -ablation pagesize -app tsp -small -p 8 -c 2 -csv", 0, "app,p,c,page_size,cycles"},
		{"sweep -scale -p 16 -topology tiered -csv", 0, strings.Join(exp.ScaleCSVHeader, ",")},
		{"sync -p 8 -small -csv", 0, "lock,barrier,c,cycles,lock_hit_ratio,cs_dilation,barrier_mean_wait,loss5_cycles,loss5_memok"},
		{"serve -small -p 8 -c 2 -csv", 0, strings.Join(serve.CSVHeader, ",")},
		// One row per phase (three), then the breakdown table.
		{"serve -small -p 8 -c 2 -breakdown -csv", 4, strings.Join(serve.BreakdownCSVHeader, ",")},
		{"serve -small -p 8 -sweep", 0, strings.Join(exp.ServeTailCSVHeader, ",")},
		{"chaos -apps water -seeds 1 -csv", 0, "app,seed,cycles,base_cycles,slowdown,msgs,dropped,dup,delayed,dupsuppressed,timeouts,retrans,acks,ackdropped,recovery_cycles,mem_ok"},
		{"check -workloads write-share -csv", 0, "workload,runs,states,choices,max_fanout,complete,violation"},
	} {
		status, stdout, stderr := mgs(strings.Fields(tc.args)...)
		if status != 0 {
			t.Errorf("mgs %s: status %d, stderr:\n%s", tc.args, status, stderr)
			continue
		}
		lines := strings.Split(stdout, "\n")
		if len(lines) < tc.line+3 { // the header, at least one row, the final newline
			t.Errorf("mgs %s: only %d lines of output", tc.args, len(lines))
		} else if lines[tc.line] != tc.header {
			t.Errorf("mgs %s: line %d = %q, want header %q", tc.args, tc.line, lines[tc.line], tc.header)
		}
	}
}

// TestExitStatusAndDiagnosis: every way a command line or a run can be
// wrong ends as an exit status (2 bad command line, 1 failed run) and a
// stderr that starts with the stated line — never a goroutine trace,
// never a silent fallback.
func TestExitStatusAndDiagnosis(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		status int
		stderr string // the first stderr line starts with this
	}{
		{nil, 2, "usage: mgs <command>"},
		{[]string{"bogus"}, 2, `mgs: unknown command "bogus"`},
		{[]string{"run", "water", "-small"}, 2, `mgs run: unexpected argument "water"`},
		{[]string{"run", "-engine-workers", "4"}, 2, "flag provided but not defined: -engine-workers"},
		{[]string{"sweep"}, 2, "Usage of mgs sweep:"},
		{[]string{"chaos", "-seeds", "0"}, 2, "mgs chaos: -seeds 0: want at least one seed"},
		{[]string{"chaos", "-seeds", "-1"}, 2, "mgs chaos: -seeds -1: want at least one seed"},
		{[]string{"micro", "-h"}, 0, "Usage of mgs micro:"},
		{[]string{"run", "-h"}, 0, "Usage of mgs run:"},
		{[]string{"run", "-app", "bogus"}, 1, `mgs run: unknown app "bogus" (known: jacobi, `},
		{[]string{"run", "-app", ""}, 1, `mgs run: unknown app ""`},
		{[]string{"chaos", "-apps", ""}, 1, `mgs chaos: unknown app ""`},
		{[]string{"profile", "-apps", "water,"}, 1, `mgs profile: unknown app ""`},
		{[]string{"run", "-pagesize", "1000"}, 1, "mgs run: jacobi: bad page size 1000"},
		{[]string{"trace", "-p", "8", "-c", "3"}, 1, "mgs trace: water: bad machine shape P=8 C=3"},
		{[]string{"profile", "-p", "8", "-c", "3"}, 1, "mgs profile: water: bad machine shape P=8 C=3"},
		{[]string{"sweep", "-ablation", "bogus"}, 1, `mgs sweep: unknown ablation "bogus"`},
		{[]string{"chaos", "-apps", "water", "-seeds", "1", "-drop", "-5"}, 1, "mgs chaos: chaos water seed=1: water: bad fault rates drop=-5"},
		{[]string{"chaos", "-apps", "water", "-seeds", "1", "-drop", "20000"}, 1, "mgs chaos: chaos water seed=1: water: bad fault rates drop=20000"},
		{[]string{"chaos", "-apps", "water", "-seeds", "1", "-drop", "10000"}, 1, "mgs chaos: chaos water seed=1: water: bad fault drop rate 10000"},
		{[]string{"chaos", "-apps", "water", "-seeds", "1", "-maxdelay", "-5"}, 1, "mgs chaos: chaos water seed=1: water: bad fault max delay -5"},
		{[]string{"serve", "-small", "-p", "8", "-c", "2", "-slo", "p99:1", "-enforce-slo"}, 1, "mgs serve: SLO missed"},
	} {
		status, stdout, stderr := mgs(tc.args...)
		if status != tc.status {
			t.Errorf("mgs %q: status %d, want %d; stderr:\n%s", tc.args, status, tc.status, stderr)
		}
		if !strings.HasPrefix(stderr, tc.stderr) {
			t.Errorf("mgs %q: stderr %q, want it to start %q", tc.args, stderr, tc.stderr)
		}
		if strings.Contains(stderr, "goroutine ") {
			t.Errorf("mgs %q: stderr carries a goroutine trace:\n%s", tc.args, stderr)
		}
		if status == 2 && stdout != "" {
			t.Errorf("mgs %q: a rejected command line wrote to stdout:\n%s", tc.args, stdout)
		}
	}
}

// TestHelpListsEveryCommand: mgs help names each command of the
// dispatch table, on stdout, and -h is the same request.
func TestHelpListsEveryCommand(t *testing.T) {
	status, stdout, _ := mgs("help")
	if _, flagOut, _ := mgs("-h"); status != 0 || flagOut != stdout {
		t.Fatalf("mgs help: status %d; mgs -h printed %q, mgs help %q", status, flagOut, stdout)
	}
	for _, c := range commands {
		if !strings.Contains(stdout, "\n  "+c.name+" ") {
			t.Errorf("mgs help does not list %q:\n%s", c.name, stdout)
		}
	}
}

// TestCounterexampleRoundTrip: a violation is status 1 and a saved
// trace; replaying the trace reproduces the violation, status 0.
func TestCounterexampleRoundTrip(t *testing.T) {
	cx := filepath.Join(t.TempDir(), "cx.json")
	status, stdout, stderr := mgs("check", "-workloads", "upgrade-race", "-mutate", "-save", cx)
	if status != 1 || !strings.Contains(stderr, "mgs check: counterexample written to "+cx) {
		t.Fatalf("check -mutate: status %d, stdout:\n%s\nstderr:\n%s", status, stdout, stderr)
	}
	status, stdout, stderr = mgs("check", "-replay", cx)
	if status != 0 || !strings.HasPrefix(stdout, cx+": reproduced ") {
		t.Fatalf("check -replay: status %d, stdout:\n%s\nstderr:\n%s", status, stdout, stderr)
	}
}
