package cli

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"mgs/internal/harness"
	"mgs/internal/msg"
)

// withArgs runs fn with a fresh flag set and the given command line.
func withArgs(t *testing.T, args []string, fn func()) {
	t.Helper()
	oldFS, oldArgs := flag.CommandLine, os.Args
	defer func() { flag.CommandLine, os.Args = oldFS, oldArgs }()
	flag.CommandLine = flag.NewFlagSet("cli_test", flag.PanicOnError)
	os.Args = append([]string{"cli_test"}, args...)
	fn()
}

func TestDefaultsAndConfig(t *testing.T) {
	withArgs(t, nil, func() {
		tool := New("cli_test").MachineFlags("water", 8, 2, true).Parse()
		if tool.App != "water" || tool.P != 8 || tool.C != 2 || !tool.Small {
			t.Fatalf("defaults not applied: %+v", tool)
		}
		cfg := tool.Config()
		if cfg.P != 8 || cfg.C != 2 || cfg.PageSize != 1024 || cfg.Delay != 1000 {
			t.Fatalf("Config did not use the paper defaults: %+v", cfg)
		}
		if cfg.Disabled {
			t.Fatal("C < P must leave the software layer enabled")
		}
	})
}

func TestParsedValuesFlow(t *testing.T) {
	withArgs(t, []string{"-app", "tsp", "-p", "16", "-c", "4", "-small=false", "-workers", "3", "-csv"}, func() {
		tool := New("cli_test").MachineFlags("water", 8, 2, true).SweepFlags().Parse()
		if tool.App != "tsp" || tool.P != 16 || tool.C != 4 || tool.Small {
			t.Fatalf("parsed values not applied: %+v", tool)
		}
		if !tool.CSV {
			t.Fatal("-csv not applied")
		}
		if cfg := tool.Config(harness.WithPageSize(2048)); cfg.PageSize != 2048 {
			t.Fatalf("options not applied through Config: %+v", cfg)
		}
	})
}

// TestParsedOptionsReachTheRunOnly: every run parameter a flag sets
// arrives in the Config and Env the Tool builds — and nowhere else: a
// configuration built without the Tool is what it was before the parse.
func TestParsedOptionsReachTheRunOnly(t *testing.T) {
	before := harness.NewConfig(8, 2)
	withArgs(t, []string{"-topology", "mesh", "-lock", "mcs", "-barrier", "dissemination", "-workers", "3"}, func() {
		tool := New("cli_test").MachineFlags("water", 8, 2, true).SweepFlags().Parse()
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
	})
	if after := harness.NewConfig(8, 2); !reflect.DeepEqual(before, after) {
		t.Fatalf("Parse changed what harness.NewConfig returns:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestBadNamesAreErrors: a name no constructor or registry knows is a
// one-line error listing the known ones, not a panic at first use.
func TestBadNamesAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // substrings of the error
	}{
		{[]string{"-app", "bogus"}, []string{`unknown app "bogus"`, "jacobi", "syncbench"}},
		{[]string{"-apps", "water,bogus"}, []string{`unknown app "bogus"`, "barnes-hut"}},
		{[]string{"-topology", "torus"}, []string{"torus", "mesh"}},
		{[]string{"-lock", "spin"}, []string{"spin", "mcs"}},
		{[]string{"-barrier", "butterfly"}, []string{"butterfly", "dissemination"}},
	} {
		withArgs(t, tc.args, func() {
			tool := New("cli_test").AppsFlag("water,tsp").MachineFlags("water", 8, 2, true)
			flag.Parse()
			err := tool.resolve()
			if err == nil {
				t.Fatalf("%v: no error", tc.args)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("%v: error spans lines: %q", tc.args, err)
			}
			for _, sub := range tc.want {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("%v: error %q does not mention %q", tc.args, err, sub)
				}
			}
		})
	}
}

// TestRemovedFlagIsAUsageError: -engine-workers went with the sharded
// dispatcher, so a command line that still carries it gets the flag
// package's own rejection — the one-line "flag provided but not
// defined" and exit status 2 — not a silently ignored knob. The child
// is this test binary parsing mgs-run's flag surface.
func TestRemovedFlagIsAUsageError(t *testing.T) {
	if os.Getenv("CLI_TEST_CHILD") == "1" {
		flag.CommandLine = flag.NewFlagSet("mgs-run", flag.ExitOnError)
		os.Args = []string{"mgs-run", "-engine-workers", "4"}
		New("mgs-run").MachineFlags("water", 8, 2, true).Parse()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedFlagIsAUsageError$")
	cmd.Env = append(os.Environ(), "CLI_TEST_CHILD=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; output:\n%s", err, out)
	}
	if first, _, _ := strings.Cut(string(out), "\n"); first != "flag provided but not defined: -engine-workers" {
		t.Fatalf("first line = %q, want the flag package's rejection", first)
	}
}

func TestAppsSelection(t *testing.T) {
	withArgs(t, nil, func() {
		tool := New("cli_test").MachineFlags("water", 8, 2, false).Parse()
		// The full-size and reduced constructors must both resolve every
		// advertised application name without panicking.
		for _, small := range []bool{false, true} {
			tool.Small = small
			mk := tool.Env().Apps
			for _, name := range AppList() {
				if app := mk(name); app == nil {
					t.Fatalf("Env().Apps(%q) returned nil (small=%v)", name, small)
				}
			}
		}
	})
}

func TestShapeFlagsSkipsApp(t *testing.T) {
	withArgs(t, []string{"-p", "4"}, func() {
		New("cli_test").ShapeFlags(8, 2, true).Parse()
		if f := flag.CommandLine.Lookup("app"); f != nil {
			t.Fatal("ShapeFlags must not register -app")
		}
	})
}
