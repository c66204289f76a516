// Package cli factors out the flag surface the mgs command-line tools
// share: every simulation tool picks an application, a machine shape
// (-p, -c), a problem size (-small), and — for the sweep-style tools —
// a worker count and CSV switch. A tool states its defaults once; the
// registration, validation, and the translation of the parsed flags
// into harness options live here. Nothing outside the Tool is written:
// the options reach a run only through Config or Env.
package cli

import (
	"flag"
	"fmt"
	"log"
	"slices"
	"strings"

	"mgs/internal/exp"
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/msync/algo"
)

// Tool holds the shared flag values of one mgs command-line tool.
// Register the flag groups a tool needs (MachineFlags, SweepFlags),
// call flag.Parse via Parse, then read the fields.
type Tool struct {
	// App is the -app selection (or -apps list for list-style tools).
	App string
	// P and C are the machine shape: total processors and cluster size.
	P, C int
	// Small selects the reduced problem sizes (-small).
	Small bool
	// Workers is the -workers concurrency for sweep-style tools.
	Workers int
	// Topology is the -topology inter-SSMP interconnect selection
	// (uniform, mesh, fattree, tiered).
	Topology string
	// Lock and Barrier are the -lock / -barrier synchronization
	// algorithm selections (internal/msync/algo names).
	Lock, Barrier string
	// CSV selects machine-readable output (-csv).
	CSV bool

	hasShape bool
	hasSync  bool
	// opts is what Parse made of -topology, -lock and -barrier: the
	// options every machine of this run is built with.
	opts []harness.Option
}

// New configures the standard tool logging — bare messages prefixed
// with the tool name — and returns an empty Tool.
func New(name string) *Tool {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	return &Tool{}
}

// MachineFlags registers -app, -p, -c, and -small with the tool's
// defaults. A cDef <= 0 skips -c (for tools that sweep cluster sizes
// or do not take one).
func (t *Tool) MachineFlags(appDef string, pDef, cDef int, smallDef bool) *Tool {
	flag.StringVar(&t.App, "app", appDef, "application: "+strings.Join(AppList(), ", "))
	return t.ShapeFlags(pDef, cDef, smallDef)
}

// AppsFlag registers -apps, a comma-separated application list, for
// the tools that run several; AppNames reads it back.
func (t *Tool) AppsFlag(def string) *Tool {
	flag.StringVar(&t.App, "apps", def, "comma-separated applications: "+strings.Join(AppList(), ", "))
	return t
}

// ShapeFlags registers -p, -c, and -small only (for tools with their
// own application-selection flag). A cDef <= 0 skips -c.
func (t *Tool) ShapeFlags(pDef, cDef int, smallDef bool) *Tool {
	flag.IntVar(&t.P, "p", pDef, "total processors")
	if cDef > 0 {
		flag.IntVar(&t.C, "c", cDef, "processors per SSMP (cluster size)")
	}
	flag.BoolVar(&t.Small, "small", smallDef, "use reduced problem sizes")
	flag.StringVar(&t.Topology, "topology", "uniform",
		"inter-SSMP interconnect: "+strings.Join(msg.TopologyNames(), ", "))
	t.hasShape = true
	return t.SyncFlags()
}

// SyncFlags registers -lock and -barrier, the synchronization-algorithm
// selection every simulation tool shares. ShapeFlags includes it; tools
// without shape flags (mgs-check) call it directly.
func (t *Tool) SyncFlags() *Tool {
	if t.hasSync {
		return t
	}
	flag.StringVar(&t.Lock, "lock", algo.DefaultLock,
		"lock algorithm: "+strings.Join(algo.LockNames(), ", "))
	flag.StringVar(&t.Barrier, "barrier", algo.DefaultBarrier,
		"barrier algorithm: "+strings.Join(algo.BarrierNames(), ", "))
	t.hasSync = true
	return t
}

// SweepFlags registers -workers and -csv for tools that run many
// independent simulations.
func (t *Tool) SweepFlags() *Tool {
	flag.IntVar(&t.Workers, "workers", 0, "concurrent runs (0 = GOMAXPROCS, 1 = sequential)")
	flag.BoolVar(&t.CSV, "csv", false, "emit CSV rows instead of formatted output")
	return t
}

// Parse parses the process flags and exits with a one-line error on an
// unknown application, topology, lock or barrier name.
func (t *Tool) Parse() *Tool {
	flag.Parse()
	if err := t.resolve(); err != nil {
		log.Fatal(err)
	}
	return t
}

// resolve validates the parsed names and builds the run's options.
func (t *Tool) resolve() error {
	if t.App != "" {
		for _, name := range t.AppNames() {
			if !slices.Contains(AppList(), name) {
				return fmt.Errorf("unknown app %q (known: %s)", name, strings.Join(AppList(), ", "))
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

// AppList names every application the exp constructors accept, the
// paper suite first.
func AppList() []string {
	return append(append([]string{}, exp.AppNames...),
		"water-kernel", "water-kernel-tiled", "lu", "serve", "syncbench")
}
