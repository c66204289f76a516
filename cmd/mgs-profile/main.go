// mgs-profile runs applications with the cycle-attribution profiler
// armed and reports where the simulated cycles went: which pages, locks,
// and barriers each processor spent its User/Lock/Barrier/MGS time on.
//
// Usage:
//
//	mgs-profile                          # water and tsp, P=8 C=2, small
//	mgs-profile -apps water,tsp,jacobi -p 16 -c 4
//	mgs-profile -out profdir -top 20
//
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
// and must agree cycle for cycle; any difference is a bug and exits
// nonzero.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"mgs/internal/cli"
	"mgs/internal/harness"
	"mgs/internal/obs"
	"mgs/internal/stats"
)

func main() {
	t := cli.New("mgs-profile").AppsFlag("water,tsp").ShapeFlags(8, 2, true)
	var (
		out = flag.String("out", "profile", "output directory for trace and collapsed files")
		top = flag.Int("top", 10, "heat-report lines per object kind")
	)
	t.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, name := range t.AppNames() {
		if err := profileOne(name, t, *out, *top); err != nil {
			log.Fatal(err)
		}
	}
}

func profileOne(name string, t *cli.Tool, out string, top int) error {
	chrome := obs.NewChromeSink(t.P)
	o := obs.New().AddSink(chrome).EnableProfiling()
	m := harness.NewMachine(t.Config(harness.WithObserver(o)))
	a := t.Env().Apps(name)
	a.Setup(m)
	res, err := m.Run(a.Body)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := a.Verify(m); err != nil {
		return fmt.Errorf("%s verification: %w", name, err)
	}
	prof := o.Profiler()

	// Reconciliation: the profiler and the stats collector are fed by the
	// same Charge calls, so their per-(processor, component) totals must
	// be identical. A difference means a charge site bypassed one of them.
	totals := prof.Totals()
	for p, comps := range totals {
		for c, cyc := range comps {
			if got, want := cyc, res.Breakdown.PerProc[p][c]; got != want {
				return fmt.Errorf("%s: profiler disagrees with breakdown at proc %d %s: %d != %d cycles",
					name, p, stats.Category(c), got, want)
			}
		}
	}

	fmt.Printf("%s on P=%d C=%d: %d cycles, profiler reconciles with breakdown (%s)\n",
		name, t.P, t.C, res.Cycles, res.Breakdown.String())
	for _, kind := range []obs.ObjKind{obs.ObjPage, obs.ObjLock, obs.ObjBarrier} {
		heat := prof.Heat(kind)
		if len(heat) == 0 {
			continue
		}
		fmt.Printf("  hottest %ss (%d total):\n", kind, len(heat))
		for i, h := range heat {
			if i >= top {
				fmt.Printf("    ... %d more\n", len(heat)-top)
				break
			}
			var parts []string
			for c, cyc := range h.ByComp {
				if cyc > 0 {
					parts = append(parts, fmt.Sprintf("%s %d", stats.Category(c), cyc))
				}
			}
			fmt.Printf("    %s:%-6d %12d cycles  (%s)\n", kind, h.ID, h.Cycles, strings.Join(parts, ", "))
		}
	}

	tracePath := filepath.Join(out, name+".trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if _, err := chrome.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	collapsedPath := filepath.Join(out, name+".collapsed")
	f, err = os.Create(collapsedPath)
	if err != nil {
		return err
	}
	if err := prof.WriteCollapsed(f, func(c int) string { return stats.Category(c).String() }); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  wrote %s (%d events), %s\n", tracePath, chrome.Len(), collapsedPath)
	return nil
}
