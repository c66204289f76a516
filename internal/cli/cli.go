// Package cli is the flag surface the mgs subcommands share: every
// simulation command picks an application, a machine shape (-p, -c), a
// problem size (-small), and — for the sweep-style commands — a worker
// count and CSV switch. A command states its defaults once; the
// registration, validation, and the translation of the parsed flags
// into harness options live here. A Tool owns its flag set and writes
// nothing outside itself: no process flags, no logger, no exit — the
// options reach a run only through Config or Env, and failures reach
// the caller only as errors.
package cli

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"mgs/internal/exp"
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/msync/algo"
)

// ErrUsage is a bad command line that has already been explained on
// the Tool's stderr (by the flag package or Usagef): the caller exits
// with status 2 and prints nothing more.
var ErrUsage = errors.New("bad command line")

// Tool holds the flag set and the shared flag values of one mgs
// subcommand. Register the flag groups the command needs (MachineFlags,
// SweepFlags) and its own flags on Flags, call Parse, then read the
// fields.
type Tool struct {
	// Flags is the command's own flag set; its output is the stderr
	// New was given.
	Flags *flag.FlagSet
	// App is the -app selection (or -apps list for list-style commands).
	App string
	// P and C are the machine shape: total processors and cluster size.
	P, C int
	// Small selects the reduced problem sizes (-small).
	Small bool
	// Workers is the -workers concurrency for sweep-style commands.
	Workers int
	// Topology is the -topology inter-SSMP interconnect selection
	// (msg.TopologyNames).
	Topology string
	// Lock and Barrier are the -lock / -barrier synchronization
	// algorithm selections (internal/msync/algo names).
	Lock, Barrier string
	// CSV selects machine-readable output (-csv).
	CSV bool

	appRequired, hasShape, hasSync bool
	// opts is what Parse made of -topology, -lock and -barrier: the
	// options every machine of this run is built with.
	opts []harness.Option
}

// New returns an empty Tool whose flag set is named name ("mgs run")
// and reports to stderr.
func New(name string, stderr io.Writer) *Tool {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Tool{Flags: fs}
}

// MachineFlags registers -app, -p, -c, and -small with the command's
// defaults. A cDef <= 0 skips -c (for commands that sweep cluster sizes
// or do not take one); an empty appDef makes the application optional.
func (t *Tool) MachineFlags(appDef string, pDef, cDef int, smallDef bool) *Tool {
	t.Flags.StringVar(&t.App, "app", appDef, "application: "+strings.Join(exp.AllAppNames, ", "))
	t.appRequired = appDef != ""
	return t.ShapeFlags(pDef, cDef, smallDef)
}

// AppsFlag registers -apps, a comma-separated application list, for
// the commands that run several; AppNames reads it back.
func (t *Tool) AppsFlag(def string) *Tool {
	t.Flags.StringVar(&t.App, "apps", def, "comma-separated applications: "+strings.Join(exp.AllAppNames, ", "))
	t.appRequired = true
	return t
}

// ShapeFlags registers -p, -c, and -small only (for commands with their
// own application-selection flag). A cDef <= 0 skips -c.
func (t *Tool) ShapeFlags(pDef, cDef int, smallDef bool) *Tool {
	t.Flags.IntVar(&t.P, "p", pDef, "total processors")
	if cDef > 0 {
		t.Flags.IntVar(&t.C, "c", cDef, "processors per SSMP (cluster size)")
	}
	t.Flags.BoolVar(&t.Small, "small", smallDef, "use reduced problem sizes")
	t.Flags.StringVar(&t.Topology, "topology", "uniform",
		"inter-SSMP interconnect: "+strings.Join(msg.TopologyNames(), ", "))
	t.hasShape = true
	return t.SyncFlags()
}

// SyncFlags registers -lock and -barrier, the synchronization-algorithm
// selection every simulation command shares. ShapeFlags includes it;
// commands without shape flags (mgs check) call it directly.
func (t *Tool) SyncFlags() *Tool {
	if t.hasSync {
		return t
	}
	t.Flags.StringVar(&t.Lock, "lock", algo.DefaultLock,
		"lock algorithm: "+strings.Join(algo.LockNames(), ", "))
	t.Flags.StringVar(&t.Barrier, "barrier", algo.DefaultBarrier,
		"barrier algorithm: "+strings.Join(algo.BarrierNames(), ", "))
	t.hasSync = true
	return t
}

// SweepFlags registers -workers and -csv for commands that run many
// independent simulations.
func (t *Tool) SweepFlags() *Tool {
	t.Flags.IntVar(&t.Workers, "workers", 0, "concurrent runs (0 = GOMAXPROCS, 1 = sequential)")
	t.Flags.BoolVar(&t.CSV, "csv", false, "emit CSV rows instead of formatted output")
	return t
}

// Parse parses args into the registered flags. flag.ErrHelp means -h
// printed the usage; ErrUsage means an undefined flag, a malformed
// value, a stray positional argument or a -p below 1 was reported on
// stderr; any other error is a one-line rejection of an unknown
// application, topology, lock or barrier name.
func (t *Tool) Parse(args []string) error {
	if err := t.Flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return ErrUsage
	}
	if t.Flags.NArg() > 0 {
		return t.Usagef("unexpected argument %q", t.Flags.Arg(0))
	}
	if t.hasShape && t.P < 1 {
		return t.Usagef("-p %d: want at least one processor", t.P)
	}
	return t.resolve()
}

// Logf writes one line, prefixed with the command's name, to stderr.
func (t *Tool) Logf(format string, args ...any) {
	fmt.Fprintf(t.Flags.Output(), "%s: %s\n", t.Flags.Name(), fmt.Sprintf(format, args...))
}

// Usagef reports a bad command line on stderr and returns ErrUsage.
func (t *Tool) Usagef(format string, args ...any) error {
	t.Logf(format, args...)
	return ErrUsage
}

// resolve validates the parsed names and builds the run's options.
func (t *Tool) resolve() error {
	if t.appRequired || t.App != "" {
		for _, name := range t.AppNames() {
			if !slices.Contains(exp.AllAppNames, name) {
				return fmt.Errorf("unknown app %q (known: %s)", name, strings.Join(exp.AllAppNames, ", "))
			}
		}
	}
	t.opts = nil
	if t.hasShape {
		topo, err := msg.ByName(t.Topology)
		if err != nil {
			return err
		}
		// The uniform LAN is the configuration's zero value; naming it
		// leaves the topology unset, as a run without the flag has it.
		if t.Topology != "" && t.Topology != "uniform" {
			t.opts = append(t.opts, harness.WithTopology(topo))
		}
	}
	if t.hasSync {
		if _, err := algo.LockByName(t.Lock); err != nil {
			return err
		}
		if _, err := algo.BarrierByName(t.Barrier); err != nil {
			return err
		}
		t.opts = append(t.opts, harness.WithLockAlgo(t.Lock), harness.WithBarrierAlgo(t.Barrier))
	}
	return nil
}

// AppNames splits the -app / -apps selection at commas.
func (t *Tool) AppNames() []string {
	names := strings.Split(t.App, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
}

// Env is the run as the exp entry points take it: the application
// constructor -small selects, the parsed options, and the -workers
// sweep width.
func (t *Tool) Env() exp.Env {
	apps := exp.NewApp
	if t.Small {
		apps = exp.SmallApp
	}
	return exp.Env{Apps: apps, Opts: t.opts, Workers: t.Workers}
}

// Config builds the paper's configuration for the parsed machine shape
// under the parsed options, with opts applied on top.
func (t *Tool) Config(opts ...harness.Option) harness.Config {
	return t.Env().Config(t.P, t.C, opts...)
}

// CSV writes the commands' CSV tables, and every mgs CSV goes through
// it: one formatting rule (floats to six significant digits, everything
// else as %v, so a column with a published fixed precision passes a
// preformatted string) and one place where a failed write surfaces.
type CSV struct{ w *csv.Writer }

// NewCSV starts a CSV table on w with its header row.
func NewCSV(w io.Writer, header ...any) CSV {
	c := CSV{csv.NewWriter(w)}
	c.Row(header...)
	return c
}

// Row buffers one record.
func (c CSV) Row(fields ...any) {
	rec := make([]string, len(fields))
	for i, f := range fields {
		if v, ok := f.(float64); ok {
			rec[i] = strconv.FormatFloat(v, 'g', 6, 64)
		} else {
			rec[i] = fmt.Sprint(f)
		}
	}
	c.w.Write(rec) // a failed write is sticky: Flush reports it
}

// Flush writes the buffered rows out and returns the first write error.
func (c CSV) Flush() error {
	c.w.Flush()
	return c.w.Error()
}
