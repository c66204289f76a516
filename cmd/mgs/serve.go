package main

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mgs/internal/cli"
	"mgs/internal/exp"
	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/serve"
	"mgs/internal/sim"
)

// serveCmd drives the online-serving workload (internal/serve): a
// sharded key-value/session store in MGS shared memory under a
// deterministic open-loop traffic schedule (steady Zipf, working-set
// drift, flash crowd), reporting per-phase p50/p99/p999 latency in
// simulated cycles. Output is deterministic: bit-identical across
// -workers settings and across reruns at a fixed seed. Beside a failed
// verification, an SLO miss under -enforce-slo and, in -sweep mode, a
// chaos run whose final memory diverges from the fault-free run's are
// errors.
func serveCmd(t *cli.Tool, args []string, stdout io.Writer) error {
	t.ShapeFlags(32, 4, false).SweepFlags()
	var (
		workload   = t.Flags.String("workload", "default", "op mix preset: "+strings.Join(serve.Mixes, ", "))
		skew       = t.Flags.Float64("skew", 0.9, "Zipf skew exponent theta (0 = uniform)")
		phases     = t.Flags.String("phases", "", "override phase durations, e.g. steady:800000,drift:800000,flash:400000")
		sloFlag    = t.Flags.String("slo", "", "per-phase latency SLO in cycles, e.g. p99:2500000,p999:5000000")
		seed       = t.Flags.Uint64("seed", 1, "workload seed")
		chaos      = t.Flags.Bool("chaos", false, "inject 5% message loss (exp.LossPlan)")
		sweep      = t.Flags.Bool("sweep", false, "sweep cluster sizes, fault-free and 5%-loss columns")
		asJSON     = t.Flags.Bool("json", false, "emit the report as JSON")
		breakdown  = t.Flags.Bool("breakdown", false, "attribute per-request cost: lock wait vs protocol vs transport (profiled run)")
		enforceSLO = t.Flags.Bool("enforce-slo", false, "exit nonzero if any phase misses the SLO")
	)
	if err := t.Parse(args); err != nil {
		return err
	}

	w := serve.DefaultWorkload(t.Small, *seed)
	if !serve.ApplyMix(&w, *workload) {
		return fmt.Errorf("unknown workload %q (have: %s)", *workload, strings.Join(serve.Mixes, ", "))
	}
	if !(*skew >= 0 && *skew <= serve.MaxTheta) { // false for NaN
		return t.Usagef("-skew %g: want a Zipf exponent in [0, %d]", *skew, serve.MaxTheta)
	}
	w.Theta = *skew
	if err := applyPhases(&w, *phases); err != nil {
		return err
	}
	slo, err := parseSLO(*sloFlag)
	if err != nil {
		return err
	}

	if *sweep {
		points, err := exp.ServeTailSweep(w, t.P, slo, t.Env())
		if err != nil {
			return err
		}
		w := cli.NewCSV(stdout, "p", "c", "variant", "phase", "count",
			"mean_cycles", "p50_cycles", "p99_cycles", "p999_cycles",
			"dropped_msgs", "retransmits", "mem_ok")
		rows := func(pt exp.ServeTailPoint, variant string, rep serve.Report) {
			for _, ps := range rep.Phases {
				w.Row(rep.P, pt.C, variant, ps.Phase, ps.Count,
					fixed(ps.Mean, 1), fixed(ps.P50, 1), fixed(ps.P99, 1), fixed(ps.P999, 1),
					rep.Dropped, rep.Retransmit, pt.MemOK)
			}
		}
		for _, pt := range points {
			rows(pt, "clean", pt.Clean)
			rows(pt, "chaos", pt.Chaos)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		for _, pt := range points {
			switch {
			case !pt.MemOK:
				return fmt.Errorf("C=%d: chaos memory diverges from fault-free run", pt.C)
			case *enforceSLO && !pt.Clean.SLOOK:
				return fmt.Errorf("C=%d: SLO missed", pt.C)
			}
		}
		return nil
	}

	var plan fault.Plan
	if *chaos {
		plan = exp.LossPlan(*seed)
	}
	serveRun := exp.ServeRun
	if *breakdown {
		serveRun = exp.ServeRunBreakdown
	}
	rep, _, err := serveRun(w, t.Config(harness.WithFaultPlan(plan)), slo)
	if err != nil {
		return err
	}
	switch {
	case *asJSON:
		if err := writeJSON(stdout, rep); err != nil {
			return err
		}
	case t.CSV:
		if err := writeReportCSV(stdout, rep); err != nil {
			return err
		}
	default:
		printReport(stdout, rep)
	}
	if *enforceSLO && !rep.SLOOK {
		return errors.New("SLO missed")
	}
	return nil
}

// applyPhases overrides named phase durations in place.
func applyPhases(w *serve.Workload, spec string) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("bad -phases entry %q (want name:cycles)", part)
		}
		cycles, err := strconv.ParseInt(val, 10, 64)
		if err != nil || cycles <= 0 {
			return fmt.Errorf("bad -phases duration %q", part)
		}
		found := false
		for i := range w.Phases {
			if w.Phases[i].Name == name {
				w.Phases[i].Cycles = sim.Time(cycles)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("-phases: no phase named %q", name)
		}
	}
	return nil
}

// parseSLO parses "p99:2500000,p999:5000000" into an SLO.
func parseSLO(spec string) (serve.SLO, error) {
	var s serve.SLO
	if spec == "" {
		return s, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(part, ":")
		if !ok {
			return s, fmt.Errorf("bad -slo entry %q (want pXX:cycles)", part)
		}
		cycles, err := strconv.ParseFloat(val, 64)
		if err != nil || cycles <= 0 {
			return s, fmt.Errorf("bad -slo bound %q", part)
		}
		switch name {
		case "p50":
			s.P50 = cycles
		case "p99":
			s.P99 = cycles
		case "p999":
			s.P999 = cycles
		default:
			return s, fmt.Errorf("-slo: unknown quantile %q (want p50, p99, p999)", name)
		}
	}
	return s, nil
}

// writeReportCSV writes one row per phase and, for a profiled run, a
// second table with one row per cost component.
func writeReportCSV(stdout io.Writer, rep serve.Report) error {
	w := cli.NewCSV(stdout, "p", "c", "seed", "phase", "count",
		"mean_cycles", "p50_cycles", "p99_cycles", "p999_cycles",
		"lock_hits", "lock_total", "dropped_msgs", "retransmits", "slo_ok")
	for _, ps := range rep.Phases {
		w.Row(rep.P, rep.C, rep.Seed, ps.Phase, ps.Count,
			fixed(ps.Mean, 1), fixed(ps.P50, 1), fixed(ps.P99, 1), fixed(ps.P999, 1),
			rep.LockHits, rep.LockTotal, rep.Dropped, rep.Retransmit, ps.SLOOK)
	}
	if b := rep.Breakdown; b != nil {
		w.Row("component", "cycles", "per_request_cycles")
		for _, c := range costRows(b) {
			per := 0.0
			if rep.Requests > 0 {
				per = float64(c.cycles) / float64(rep.Requests)
			}
			w.Row(c.name, c.cycles, fixed(per, 1))
		}
	}
	return w.Flush()
}

// costRow is one component of a serving run's cost breakdown.
type costRow struct {
	name   string
	cycles int64
}

// costRows lists b's components in the order both renders print them.
func costRows(b *serve.CostBreakdown) []costRow {
	return []costRow{{"user", b.UserCycles}, {"lock", b.LockCycles}, {"barrier", b.BarrierCycles},
		{"protocol", b.ProtocolCycles}, {"transport", b.TransportCycles}}
}

func printReport(stdout io.Writer, rep serve.Report) {
	fmt.Fprintf(stdout, "serve P=%d C=%d seed=%d theta=%g: %d requests (%d get / %d put / %d scan) in %d cycles\n",
		rep.P, rep.C, rep.Seed, rep.Theta, rep.Requests, rep.Gets, rep.Puts, rep.Scans, rep.Cycles)
	if rep.LockTotal > 0 {
		fmt.Fprintf(stdout, "  shard locks: %d/%d served in-SSMP\n", rep.LockHits, rep.LockTotal)
	}
	if rep.Dropped > 0 || rep.Retransmit > 0 {
		fmt.Fprintf(stdout, "  transport: %d dropped, %d retransmits\n", rep.Dropped, rep.Retransmit)
	}
	if b := rep.Breakdown; b != nil {
		fmt.Fprintf(stdout, "  cost breakdown (%.1f attributed cycles/request):\n", b.PerRequestCycles)
		for _, c := range costRows(b) {
			fmt.Fprintf(stdout, "    %-10s %14d cycles\n", c.name, c.cycles)
		}
		for _, hl := range b.HotLocks {
			fmt.Fprintf(stdout, "    hot lock %-4d %14d cycles\n", hl.ID, hl.Cycles)
		}
	}
	fmt.Fprintf(stdout, "  %-8s %6s %12s %12s %12s %12s\n", "phase", "count", "mean", "p50", "p99", "p999")
	for _, ps := range rep.Phases {
		mark := ""
		if !ps.SLOOK {
			mark = "  SLO MISS"
		}
		fmt.Fprintf(stdout, "  %-8s %6d %12.1f %12.1f %12.1f %12.1f%s\n",
			ps.Phase, ps.Count, ps.Mean, ps.P50, ps.P99, ps.P999, mark)
	}
	if !rep.SLO.Empty() {
		status := "met"
		if !rep.SLOOK {
			status = "MISSED"
		}
		fmt.Fprintf(stdout, "  SLO %s\n", status)
	}
}
