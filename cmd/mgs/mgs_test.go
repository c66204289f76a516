package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mgs runs one command line in-process.
func mgs(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// TestCSVHeaderOfEveryMode pins the complete stdout — the header that
// plotting scripts and CI parse, and every simulated cycle under it — of
// every table- or CSV-emitting mode at small shapes, byte for byte. A
// golden is the file in testdata named by the command line, spaces as
// underscores, and holds that command's stdout and nothing else:
//
//	go run ./cmd/mgs sweep -fig11 -small -p 8 -csv > cmd/mgs/testdata/sweep_-fig11_-small_-p_8_-csv
//
// regenerates one after a deliberate change.
//
// Each command line, plus serve's JSON document, then runs again
// against a stdout that fails every write: a lost write is exit status
// 1 and the write error on stderr, whichever printer lost it.
func TestCSVHeaderOfEveryMode(t *testing.T) {
	modes := []string{
		"micro",
		"sweep -app water -small -p 8 -csv",
		"sweep -app lu -small -p 8 -csv",
		"sweep -table4 -small -p 4 -csv",
		"sweep -fig11 -small -p 8 -csv",
		"sweep -fig12 -p 4 -csv",
		"sweep -all -small -p 8 -csv",
		"sweep -ablation 1writer -app water -small -p 8 -csv",
		"sweep -ablation serialinv -small -p 8 -csv",
		"sweep -ablation update -small -p 8 -csv",
		"sweep -ablation lazy -small -p 8 -csv",
		"sweep -ablation mesh -small -p 8 -csv",
		"sweep -ablation pagesize -app tsp -small -p 8 -c 2 -csv",
		"sweep -scale -p 16 -topology tiered -csv",
		"sync -p 8 -small -csv",
		"serve -small -p 8 -c 2 -csv",
		"serve -small -p 8 -c 2 -breakdown -csv",
		"serve -small -p 8 -sweep",
		"chaos -apps water -seeds 1 -csv",
		"check -csv",
		"check -workloads write-share -csv",
		"trace -max 100000",
		"trace -app tsp -faults -max 100000",
	}
	for _, args := range modes {
		golden := filepath.Join("testdata", strings.ReplaceAll(args, " ", "_"))
		want, err := os.ReadFile(golden)
		status, stdout, stderr := mgs(strings.Fields(args)...)
		switch {
		case err != nil:
			t.Errorf("mgs %s: %v", args, err)
		case status != 0:
			t.Errorf("mgs %s: status %d, stderr:\n%s", args, status, stderr)
		case stdout != string(want):
			t.Errorf("mgs %s: stdout differs from %s at %s", args, golden, firstDiff(stdout, string(want)))
		}
	}
	for _, args := range append(modes, "serve -small -p 8 -c 2 -json") {
		var stderr bytes.Buffer
		fields := strings.Fields(args)
		status := run(fields, failingWriter{}, &stderr)
		if want := "mgs " + fields[0] + ": " + errLostWrite.Error() + "\n"; status != 1 || stderr.String() != want {
			t.Errorf("mgs %s > failing stdout: status %d, stderr %q; want 1, %q", args, status, stderr.String(), want)
		}
	}
}

var errLostWrite = errors.New("disk full")

// failingWriter is a stdout on a full disk.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errLostWrite }

// firstDiff names the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.SplitAfter(got, "\n"), strings.SplitAfter(want, "\n")
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			line := func(ls []string) string {
				if i < len(ls) {
					return ls[i]
				}
				return "(end of output)"
			}
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, line(g), line(w))
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
		{[]string{"run", "-variant", "bogus"}, 1, `mgs run: unknown variant "bogus" (known: default, no-singlewriter, parallel-inv, update, lazy)`},
		{[]string{"trace", "-p", "8", "-c", "3"}, 1, "mgs trace: water: bad machine shape P=8 C=3"},
		{[]string{"profile", "-p", "8", "-c", "3"}, 1, "mgs profile: water: bad machine shape P=8 C=3"},
		{[]string{"sweep", "-ablation", "bogus"}, 1, `mgs sweep: unknown ablation "bogus"`},
		{[]string{"chaos", "-apps", "water", "-seeds", "1", "-drop", "-5"}, 1, "mgs chaos: chaos water seed=1: water: bad fault rates drop=-5"},
		{[]string{"chaos", "-apps", "water", "-seeds", "1", "-drop", "20000"}, 1, "mgs chaos: chaos water seed=1: water: bad fault rates drop=20000"},
		{[]string{"chaos", "-apps", "water", "-seeds", "1", "-drop", "10000"}, 1, "mgs chaos: chaos water seed=1: water: bad fault drop rate 10000"},
		{[]string{"chaos", "-apps", "water", "-seeds", "1", "-maxdelay", "-5"}, 1, "mgs chaos: chaos water seed=1: water: bad fault max delay -5"},
		{[]string{"serve", "-small", "-p", "8", "-c", "2", "-slo", "p99:1", "-enforce-slo"}, 1, "mgs serve: SLO missed"},
		{[]string{"sweep", "-app", "jacobi", "-small", "-p", "0"}, 2, "mgs sweep: -p 0: want at least one processor"},
		{[]string{"sync", "-small", "-p", "0"}, 2, "mgs sync: -p 0: want at least one processor"},
		{[]string{"serve", "-small", "-sweep", "-p", "0"}, 2, "mgs serve: -p 0: want at least one processor"},
		{[]string{"sweep", "-fig11", "-small", "-p", "0"}, 2, "mgs sweep: -p 0: want at least one processor"},
		{[]string{"sweep", "-ablation", "mesh", "-app", "water", "-small", "-p", "0"}, 2, "mgs sweep: -p 0: want at least one processor"},
		{[]string{"sweep", "-app", "jacobi", "-small", "-p", "1"}, 1, "mgs sweep: jacobi P=1: framework: need at least three sweep points (C=1, C=P/2, C=P), have 1"},
		{[]string{"sweep", "-app", "jacobi", "-small", "-p", "2"}, 1, "mgs sweep: jacobi P=2: framework: need at least three sweep points (C=1, C=P/2, C=P), have 2"},
		{[]string{"sweep", "-scale", "-app", "jacobi", "-small", "-p", "1"}, 1, "mgs sweep: scale jacobi P=1: framework: need at least"},
		{[]string{"sweep", "-scale", "-app", "jacobi", "-small", "-p", "2"}, 1, "mgs sweep: scale jacobi P=2: framework: need at least"},
		{[]string{"sweep", "-scale", "-app", "jacobi", "-small", "-p", "3"}, 1, "mgs sweep: scale jacobi P=3: framework: need at least"},
		{[]string{"sweep", "-fig12", "-p", "2"}, 1, "mgs sweep: fig12: framework: need at least"},
		{[]string{"sweep", "-topology", "fattree", "-app", "jacobi", "-small", "-p", "4"}, 1, `mgs sweep: msg: unknown topology "fattree" (want uniform, mesh, or tiered)`},
		{[]string{"serve", "-small", "-skew", "-1"}, 2, "mgs serve: -skew -1: want a Zipf exponent in [0, 1075]"},
		{[]string{"serve", "-small", "-skew", "NaN"}, 2, "mgs serve: -skew NaN: want a Zipf exponent"},
		{[]string{"serve", "-small", "-skew", "Inf"}, 2, "mgs serve: -skew +Inf: want a Zipf exponent"},
		{[]string{"serve", "-small", "-skew", "1e300"}, 2, "mgs serve: -skew 1e+300: want a Zipf exponent"},
		{[]string{"serve", "-small", "-skew", "1076"}, 2, "mgs serve: -skew 1076: want a Zipf exponent"},
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
	if status := run([]string{"help"}, failingWriter{}, io.Discard); status != 1 {
		t.Errorf("mgs help > failing stdout: status %d, want 1", status)
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
