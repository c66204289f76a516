package main

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"mgs/internal/check"
	"mgs/internal/cli"
	"mgs/internal/harness"
	"mgs/internal/obs"
)

// checkCmd is the MGS model checker: it drives the real protocol
// implementation through every message-delivery interleaving of small
// fixed workloads (bounded-exhaustive, canonical-state pruned),
// checking protocol invariants at every delivery boundary and cross-
// checking each execution against the abstract Table 2/3 state
// machines (internal/check). A violation serializes as a choice trace
// that -replay re-executes deterministically. A violation found, or a
// replayed trace that fails to reproduce its own, is an error.
func checkCmd(t *cli.Tool, args []string, stdout io.Writer) error {
	t.SweepFlags().SyncFlags()
	var (
		opt       check.Options
		workloads = t.Flags.String("workloads", "all", "comma-separated workloads, or 'all': "+strings.Join(workloadNames(), ", "))
		save      = t.Flags.String("save", "", "write the first counterexample trace to this file")
		replay    = t.Flags.String("replay", "", "re-execute a saved counterexample trace instead of exploring")
		trace     = t.Flags.Bool("trace", false, "with -replay: render every protocol event")
		asJSON    = t.Flags.Bool("json", false, "emit a JSON summary instead of formatted output")
	)
	t.Flags.BoolVar(&opt.Mutate, "mutate", false, "arm the seeded stale-WNOTIFY bug (mutation regression)")
	t.Flags.IntVar(&opt.MaxStates, "maxstates", check.DefaultMaxStates, "canonical-state budget per workload")
	t.Flags.IntVar(&opt.MaxRuns, "maxruns", check.DefaultMaxRuns, "schedule budget per workload")
	t.Flags.IntVar(&opt.MaxDepth, "maxdepth", check.DefaultMaxDepth, "choice-depth budget per run")
	if err := t.Parse(args); err != nil {
		return err
	}
	for _, b := range []struct {
		flag  string
		value int
	}{{"maxstates", opt.MaxStates}, {"maxruns", opt.MaxRuns}, {"maxdepth", opt.MaxDepth}} {
		if b.value < 1 {
			return t.Usagef("-%s %d: want a budget of at least 1", b.flag, b.value)
		}
	}

	if *replay != "" {
		return runReplay(stdout, *replay, *trace, *asJSON)
	}

	var ws []check.Workload
	if *workloads == "all" {
		ws = check.Workloads()
	} else {
		for _, name := range strings.Split(*workloads, ",") {
			w, ok := check.Lookup(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(workloadNames(), ", "))
			}
			ws = append(ws, w)
		}
	}

	// One exploration per workload; each is single-threaded and fully
	// deterministic, so parallelism across workloads cannot change any
	// result (-workers only changes wall-clock time).
	results := make([]check.Result, len(ws))
	errs := harness.RunIndexed(t.Workers, len(ws), func(i int) (err error) {
		o := opt
		o.Workload = ws[i].WithSync(t.Lock, t.Barrier)
		results[i], err = check.Explore(o)
		return err
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}

	switch {
	case *asJSON:
		if err := writeJSON(stdout, results); err != nil {
			return err
		}
	case t.CSV:
		w := cli.NewCSV(stdout, "workload", "runs", "states", "choices", "max_fanout", "complete", "violation")
		for _, r := range results {
			vio := ""
			if r.Violation != nil {
				vio = r.Violation.String()
			}
			w.Row(r.Workload, r.Runs, r.States, r.Choices, r.MaxFanout, r.Complete, vio)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	default:
		fmt.Fprintf(stdout, "%-14s %8s %8s %8s %7s %9s  %s\n",
			"workload", "runs", "states", "choices", "fanout", "complete", "result")
		for _, r := range results {
			verdict := "ok"
			if r.Violation != nil {
				verdict = r.Violation.String()
			}
			fmt.Fprintf(stdout, "%-14s %8d %8d %8d %7d %9v  %s\n",
				r.Workload, r.Runs, r.States, r.Choices, r.MaxFanout, r.Complete, verdict)
		}
	}
	bad := 0
	for _, r := range results {
		if r.Violation == nil {
			continue
		}
		bad++
		if *save != "" && bad == 1 { // first violation only
			if err := r.Violation.Trace.Save(*save); err != nil {
				return err
			}
			t.Logf("counterexample written to %s (replay with -replay %s)", *save, *save)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workloads violated an invariant", bad, len(results))
	}
	return nil
}

// runReplay re-executes a saved counterexample and reports whether it
// still reproduces its violation: nil when the recorded violation
// reproduces, an error when the run is clean or reproduces a different
// violation.
func runReplay(stdout io.Writer, path string, render, asJSON bool) error {
	tr, err := check.LoadTrace(path)
	if err != nil {
		return err
	}
	var sink obs.Sink
	if render {
		sink = obs.NewTextSink(stdout)
	}
	v, err := check.Replay(tr, sink)
	if err != nil {
		return err
	}
	if asJSON {
		err := writeJSON(stdout, struct {
			Trace      check.Trace      `json:"trace"`
			Reproduced *check.Violation `json:"reproduced"`
		}{tr, v})
		if err != nil {
			return err
		}
	}
	switch {
	case v == nil:
		fmt.Fprintf(stdout, "%s: clean run — the recorded violation no longer reproduces\n", path)
		return errors.New("violation not reproduced")
	case tr.Violation != "" && (v.Kind != tr.Kind || v.Msg != tr.Violation):
		fmt.Fprintf(stdout, "%s: reproduced a DIFFERENT violation:\n  recorded: %s: %s\n  got:      %s\n",
			path, tr.Kind, tr.Violation, v)
		return errors.New("violation not reproduced")
	}
	fmt.Fprintf(stdout, "%s: reproduced %s\n", path, v)
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range check.Workloads() {
		names = append(names, w.Name)
	}
	return names
}
