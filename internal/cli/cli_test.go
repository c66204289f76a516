package cli

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"mgs/internal/exp"
	"mgs/internal/harness"
	"mgs/internal/msg"
)

// parsed registers mgs run's shared flag surface plus the sweep flags on
// a fresh Tool and parses args into it.
func parsed(t *testing.T, args ...string) *Tool {
	t.Helper()
	tool := New("cli_test", io.Discard).MachineFlags("water", 8, 2, true).SweepFlags()
	if err := tool.Parse(args); err != nil {
		t.Fatalf("Parse(%v): %v", args, err)
	}
	return tool
}

func TestDefaultsAndConfig(t *testing.T) {
	tool := parsed(t)
	if tool.App != "water" || tool.P != 8 || tool.C != 2 || !tool.Small {
		t.Fatalf("defaults not applied: %+v", tool)
	}
	cfg := tool.Config()
	if cfg.P != 8 || cfg.C != 2 || cfg.PageSize != 1024 || cfg.Msg.InterDelay != 1000 {
		t.Fatalf("Config did not use the paper defaults: %+v", cfg)
	}
	if cfg.Disabled {
		t.Fatal("C < P must leave the software layer enabled")
	}
}

func TestParsedValuesFlow(t *testing.T) {
	tool := parsed(t, "-app", "tsp", "-p", "16", "-c", "4", "-small=false", "-workers", "3", "-csv")
	if tool.App != "tsp" || tool.P != 16 || tool.C != 4 || tool.Small {
		t.Fatalf("parsed values not applied: %+v", tool)
	}
	if !tool.CSV {
		t.Fatal("-csv not applied")
	}
	if cfg := tool.Config(harness.WithPageSize(2048)); cfg.PageSize != 2048 {
		t.Fatalf("options not applied through Config: %+v", cfg)
	}
}

// TestParsedOptionsReachTheRunOnly: every run parameter a flag sets
// arrives in the Config and Env the Tool builds — and nowhere else: a
// configuration built without the Tool is what it was before the parse.
func TestParsedOptionsReachTheRunOnly(t *testing.T) {
	before := harness.NewConfig(8, 2)
	tool := parsed(t, "-topology", "mesh", "-lock", "mcs", "-barrier", "dissemination", "-workers", "3")
	for _, cfg := range []harness.Config{tool.Config(), tool.Env().Config(8, 2)} {
		_, mesh := cfg.Msg.Topology.(*msg.Mesh2D)
		if !mesh || cfg.LockAlgo != "mcs" || cfg.BarrierAlgo != "dissemination" {
			t.Fatalf("built Config does not carry the flags: topology=%T lock=%q barrier=%q",
				cfg.Msg.Topology, cfg.LockAlgo, cfg.BarrierAlgo)
		}
	}
	if w := tool.Env().Workers; w != 3 {
		t.Fatalf("Env().Workers = %d, want 3", w)
	}
	if after := harness.NewConfig(8, 2); !reflect.DeepEqual(before, after) {
		t.Fatalf("Parse changed what harness.NewConfig returns:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestBadNamesAreErrors: a name no constructor or registry knows — the
// empty one included — is a one-line error listing the known ones, not
// a panic at first use.
func TestBadNamesAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // substrings of the error
	}{
		{[]string{"-app", "bogus"}, []string{`unknown app "bogus"`, "jacobi", "syncbench"}},
		{[]string{"-app", ""}, []string{`unknown app ""`}},
		{[]string{"-apps", "water,bogus"}, []string{`unknown app "bogus"`, "barnes-hut"}},
		{[]string{"-apps", "water,,tsp"}, []string{`unknown app ""`}},
		{[]string{"-topology", "torus"}, []string{"torus", "mesh"}},
		{[]string{"-lock", "spin"}, []string{"spin", "mcs"}},
		{[]string{"-barrier", "butterfly"}, []string{"butterfly", "dissemination"}},
	} {
		err := New("cli_test", io.Discard).AppsFlag("water,tsp").MachineFlags("water", 8, 2, true).Parse(tc.args)
		if err == nil || errors.Is(err, ErrUsage) {
			t.Fatalf("%v: err = %v, want a rejection of the name", tc.args, err)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("%v: error spans lines: %q", tc.args, err)
		}
		for _, sub := range tc.want {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%v: error %q does not mention %q", tc.args, err, sub)
			}
		}
	}
	// mgs sweep's -app defaults to empty, meaning "no application
	// selected": there, and only there, the empty name is not an error.
	if err := New("cli_test", io.Discard).MachineFlags("", 8, 2, true).Parse(nil); err != nil {
		t.Fatalf("optional -app left empty: %v", err)
	}
}

// TestRemovedFlagIsAUsageError: -engine-workers went with the sharded
// dispatcher, so a command line that still carries it gets the flag
// package's own one-line rejection on the Tool's stderr and ErrUsage
// (exit status 2 in cmd/mgs) — not a silently ignored knob. A stray
// positional argument is rejected the same way.
func TestRemovedFlagIsAUsageError(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		first string
	}{
		{[]string{"-engine-workers", "4"}, "flag provided but not defined: -engine-workers"},
		{[]string{"water", "-p", "8"}, `mgs run: unexpected argument "water"`},
	} {
		var stderr bytes.Buffer
		err := New("mgs run", &stderr).MachineFlags("water", 8, 2, true).Parse(tc.args)
		if !errors.Is(err, ErrUsage) {
			t.Fatalf("%v: err = %v, want ErrUsage", tc.args, err)
		}
		if first, _, _ := strings.Cut(stderr.String(), "\n"); first != tc.first {
			t.Fatalf("%v: first stderr line = %q, want %q", tc.args, first, tc.first)
		}
	}
}

// TestAppsSelection: the -app help text and validation list is exp's
// application table, and the full-size and reduced constructors both
// resolve every name in it.
func TestAppsSelection(t *testing.T) {
	tool := parsed(t)
	usage := tool.Flags.Lookup("app").Usage
	if want := "application: " + strings.Join(exp.AllAppNames, ", "); usage != want {
		t.Fatalf("-app usage = %q, want %q", usage, want)
	}
	for _, small := range []bool{false, true} {
		tool.Small = small
		for _, name := range exp.AllAppNames {
			tool.App = name
			if err := tool.resolve(); err != nil {
				t.Fatalf("app table name rejected: %v", err)
			}
			if app := tool.Env().Apps(name); app == nil {
				t.Fatalf("Env().Apps(%q) returned nil (small=%v)", name, small)
			}
		}
	}
	if !reflect.DeepEqual(exp.AllAppNames[:len(exp.AppNames)], exp.AppNames) {
		t.Fatalf("the paper suite %v is not the head of the app table %v", exp.AppNames, exp.AllAppNames)
	}
}

func TestShapeFlagsSkipsApp(t *testing.T) {
	tool := New("cli_test", io.Discard).ShapeFlags(8, 2, true)
	if err := tool.Parse([]string{"-p", "4"}); err != nil {
		t.Fatal(err)
	}
	if f := tool.Flags.Lookup("app"); f != nil {
		t.Fatal("ShapeFlags must not register -app")
	}
}
