// mgs-check is the MGS model checker: it drives the real protocol
// implementation through every message-delivery interleaving of small
// fixed workloads (bounded-exhaustive, canonical-state pruned),
// checking protocol invariants at every delivery boundary and cross-
// checking each execution against the abstract Table 2/3 state
// machines (internal/check). A violation serializes as a choice trace
// that -replay re-executes deterministically.
//
// Usage:
//
//	mgs-check                            # explore every built-in workload
//	mgs-check -workloads write-share     # one workload
//	mgs-check -mutate -save cx.json      # find the seeded stale-WNOTIFY bug
//	mgs-check -replay cx.json -trace     # re-execute a counterexample, rendered
//	mgs-check -maxstates 100000 -json    # bounded run, JSON summary
//
// Exit status is nonzero if any exploration finds a violation (or a
// replayed trace fails to reproduce one).
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"mgs/internal/check"
	"mgs/internal/cli"
	"mgs/internal/harness"
	"mgs/internal/obs"
)

func main() {
	t := cli.New("mgs-check").SweepFlags().SyncFlags()
	var (
		workloads = flag.String("workloads", "all", "comma-separated workloads, or 'all': "+strings.Join(workloadNames(), ", "))
		mutate    = flag.Bool("mutate", false, "arm the seeded stale-WNOTIFY bug (mutation regression)")
		maxStates = flag.Int("maxstates", check.DefaultMaxStates, "canonical-state budget per workload")
		maxRuns   = flag.Int("maxruns", check.DefaultMaxRuns, "schedule budget per workload")
		maxDepth  = flag.Int("maxdepth", check.DefaultMaxDepth, "choice-depth budget per run")
		save      = flag.String("save", "", "write the first counterexample trace to this file")
		replay    = flag.String("replay", "", "re-execute a saved counterexample trace instead of exploring")
		trace     = flag.Bool("trace", false, "with -replay: render every protocol event")
		asJSON    = flag.Bool("json", false, "emit a JSON summary instead of formatted output")
	)
	t.Parse()

	if *replay != "" {
		runReplay(*replay, *trace, *asJSON)
		return
	}

	var ws []check.Workload
	if *workloads == "all" {
		ws = check.Workloads()
	} else {
		for _, name := range strings.Split(*workloads, ",") {
			w, ok := check.Lookup(strings.TrimSpace(name))
			if !ok {
				log.Fatalf("unknown workload %q (have: %s)", name, strings.Join(workloadNames(), ", "))
			}
			ws = append(ws, w)
		}
	}

	// One exploration per workload; each is single-threaded and fully
	// deterministic, so parallelism across workloads cannot change any
	// result (-workers only changes wall-clock time).
	results := make([]check.Result, len(ws))
	errs := harness.RunIndexed(t.Workers, len(ws), func(i int) error {
		res, err := check.Explore(check.Options{
			Workload:  ws[i].WithSync(t.Lock, t.Barrier),
			Mutate:    *mutate,
			MaxStates: *maxStates,
			MaxRuns:   *maxRuns,
			MaxDepth:  *maxDepth,
		})
		results[i] = res
		return err
	})
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}

	bad := 0
	switch {
	case *asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			log.Fatal(err)
		}
	case t.CSV:
		w := csv.NewWriter(os.Stdout)
		w.Write([]string{"workload", "runs", "states", "choices", "max_fanout", "complete", "violation"})
		for _, r := range results {
			vio := ""
			if r.Violation != nil {
				vio = r.Violation.String()
			}
			w.Write([]string{r.Workload, strconv.Itoa(r.Runs), strconv.Itoa(r.States),
				strconv.Itoa(r.Choices), strconv.Itoa(r.MaxFanout),
				strconv.FormatBool(r.Complete), vio})
		}
		w.Flush()
	default:
		fmt.Printf("%-14s %8s %8s %8s %7s %9s  %s\n",
			"workload", "runs", "states", "choices", "fanout", "complete", "result")
		for _, r := range results {
			verdict := "ok"
			if r.Violation != nil {
				verdict = r.Violation.String()
			}
			fmt.Printf("%-14s %8d %8d %8d %7d %9v  %s\n",
				r.Workload, r.Runs, r.States, r.Choices, r.MaxFanout, r.Complete, verdict)
		}
	}
	for _, r := range results {
		if r.Violation == nil {
			continue
		}
		bad++
		if *save != "" {
			if err := r.Violation.Trace.Save(*save); err != nil {
				log.Fatal(err)
			}
			log.Printf("counterexample written to %s (replay with -replay %s)", *save, *save)
			*save = "" // first violation only
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// runReplay re-executes a saved counterexample and reports whether it
// still reproduces its violation. Exit status: 0 when the recorded
// violation reproduces, 1 when the run is clean or reproduces a
// different violation.
func runReplay(path string, render, asJSON bool) {
	tr, err := check.LoadTrace(path)
	if err != nil {
		log.Fatal(err)
	}
	var sink obs.Sink
	if render {
		sink = obs.NewTextSink(os.Stdout)
	}
	v, err := check.Replay(tr, sink)
	if err != nil {
		log.Fatal(err)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Trace      check.Trace      `json:"trace"`
			Reproduced *check.Violation `json:"reproduced"`
		}{tr, v})
	}
	switch {
	case v == nil:
		fmt.Printf("%s: clean run — the recorded violation no longer reproduces\n", path)
		os.Exit(1)
	case tr.Violation != "" && (v.Kind != tr.Kind || v.Msg != tr.Violation):
		fmt.Printf("%s: reproduced a DIFFERENT violation:\n  recorded: %s: %s\n  got:      %s\n",
			path, tr.Kind, tr.Violation, v)
		os.Exit(1)
	default:
		fmt.Printf("%s: reproduced %s\n", path, v)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range check.Workloads() {
		names = append(names, w.Name)
	}
	return names
}
