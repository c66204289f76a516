package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mgs/internal/cli"
	"mgs/internal/harness"
	"mgs/internal/obs"
	"mgs/internal/stats"
)

// profile runs applications with the cycle-attribution profiler armed
// and reports where the simulated cycles went: which pages, locks, and
// barriers each processor spent its User/Lock/Barrier/MGS time on.
// Per application it writes, under -out:
//
//	<app>.trace.json   Chrome trace_event JSON (chrome://tracing, Perfetto):
//	                   one track per processor plus one per software engine,
//	                   timestamped in virtual cycles
//	<app>.collapsed    collapsed-stack ("folded") profile for flamegraph.pl
//	                   and speedscope: proc3;MGS;page:42 1234
//
// and prints the per-page heat report to stdout. Before writing anything
// it reconciles the profiler's per-(processor, component) totals against
// the run's stats breakdown — the two are fed by the same charge sites
// and must agree cycle for cycle; any difference is a bug and an error.
func profile(t *cli.Tool, args []string, stdout io.Writer) error {
	t.AppsFlag("water,tsp").ShapeFlags(8, 2, true)
	var (
		out = t.Flags.String("out", "profile", "output directory for trace and collapsed files")
		top = t.Flags.Int("top", 10, "heat-report lines per object kind")
	)
	if err := t.Parse(args); err != nil {
		return err
	}
	if *top < 0 {
		return t.Usagef("-top %d: want 0 or more lines per kind", *top)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, name := range t.AppNames() {
		if err := profileOne(stdout, name, t, *out, *top); err != nil {
			return err
		}
	}
	return nil
}

func profileOne(stdout io.Writer, name string, t *cli.Tool, out string, top int) error {
	chrome := obs.NewChromeSink(t.P)
	o := obs.New().AddSink(chrome).EnableProfiling()
	res, err := harness.RunApp(t.Env().Apps(name), t.Config(harness.WithObserver(o)))
	if err != nil {
		return err
	}
	prof := o.Profiler()

	// Reconciliation: the profiler and the stats collector are fed by the
	// same Charge calls, so their per-(processor, component) totals must
	// be identical. A difference means a charge site bypassed one of them.
	for p, comps := range prof.Totals() {
		for c, cyc := range comps {
			if got, want := cyc, res.Breakdown.PerProc[p][c]; got != want {
				return fmt.Errorf("%s: profiler disagrees with breakdown at proc %d %s: %d != %d cycles",
					name, p, stats.Category(c), got, want)
			}
		}
	}

	fmt.Fprintf(stdout, "%s on P=%d C=%d: %d cycles, profiler reconciles with breakdown (%s)\n",
		name, t.P, t.C, res.Cycles, res.Breakdown.String())
	for _, kind := range []obs.ObjKind{obs.ObjPage, obs.ObjLock, obs.ObjBarrier} {
		heat := prof.Heat(kind)
		if len(heat) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  hottest %ss (%d total):\n", kind, len(heat))
		for i, h := range heat {
			if i >= top {
				fmt.Fprintf(stdout, "    ... %d more\n", len(heat)-top)
				break
			}
			var parts []string
			for c, cyc := range h.ByComp {
				if cyc > 0 {
					parts = append(parts, fmt.Sprintf("%s %d", stats.Category(c), cyc))
				}
			}
			fmt.Fprintf(stdout, "    %s:%-6d %12d cycles  (%s)\n", kind, h.ID, h.Cycles, strings.Join(parts, ", "))
		}
	}

	tracePath := filepath.Join(out, name+".trace.json")
	if err := writeFile(tracePath, chrome.WriteTo); err != nil {
		return err
	}
	collapsedPath := filepath.Join(out, name+".collapsed")
	err = writeFile(collapsedPath, func(w io.Writer) (int64, error) {
		return 0, prof.WriteCollapsed(w, func(c int) string { return stats.Category(c).String() })
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  wrote %s (%d events), %s\n", tracePath, chrome.Len(), collapsedPath)
	return nil
}
