// mgs-serve drives the online-serving workload (internal/serve): a
// sharded key-value/session store in MGS shared memory under a
// deterministic open-loop traffic schedule (steady Zipf, working-set
// drift, flash crowd), reporting per-phase p50/p99/p999 latency in
// simulated cycles. Output is deterministic: bit-identical across
// -workers settings and across reruns at a fixed seed.
//
// Usage:
//
//	mgs-serve                                  # default workload, P=32 C=4
//	mgs-serve -workload write-heavy -skew 1.1
//	mgs-serve -phases steady:800000,flash:400000
//	mgs-serve -slo p99:2500000,p999:5000000 -enforce-slo
//	mgs-serve -chaos                           # 5% message loss
//	mgs-serve -sweep -csv                      # tail vs cluster size, clean+chaos
//	mgs-serve -json                            # full report document
//
// Exit status is nonzero on verification failure, on an SLO miss with
// -enforce-slo, or in -sweep mode if any chaos run's final memory
// diverges from the fault-free run.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"mgs/internal/cli"
	"mgs/internal/exp"
	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/serve"
	"mgs/internal/sim"
)

func main() {
	t := cli.New("mgs-serve").ShapeFlags(32, 4, false).SweepFlags()
	var (
		workload   = flag.String("workload", "default", "op mix preset: "+strings.Join(serve.Mixes, ", "))
		skew       = flag.Float64("skew", 0.9, "Zipf skew exponent theta (0 = uniform)")
		phases     = flag.String("phases", "", "override phase durations, e.g. steady:800000,drift:800000,flash:400000")
		sloFlag    = flag.String("slo", "", "per-phase latency SLO in cycles, e.g. p99:2500000,p999:5000000")
		seed       = flag.Uint64("seed", 1, "workload seed")
		chaos      = flag.Bool("chaos", false, "inject 5% message loss (exp.ServeChaosPlan)")
		sweep      = flag.Bool("sweep", false, "sweep cluster sizes, fault-free and 5%-loss columns")
		asJSON     = flag.Bool("json", false, "emit the report as JSON")
		breakdown  = flag.Bool("breakdown", false, "attribute per-request cost: lock wait vs protocol vs transport (profiled run)")
		enforceSLO = flag.Bool("enforce-slo", false, "exit nonzero if any phase misses the SLO")
	)
	t.Parse()

	w := serve.DefaultWorkload(t.Small, *seed)
	if !serve.ApplyMix(&w, *workload) {
		log.Fatalf("unknown workload %q (have: %s)", *workload, strings.Join(serve.Mixes, ", "))
	}
	w.Theta = *skew
	if err := applyPhases(&w, *phases); err != nil {
		log.Fatal(err)
	}
	slo, err := parseSLO(*sloFlag)
	if err != nil {
		log.Fatal(err)
	}

	if *sweep {
		points, err := exp.ServeTailSweep(w, t.P, slo, t.Env())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(exp.ServeTailCSV(points))
		for _, pt := range points {
			if !pt.MemOK {
				log.Fatalf("C=%d: chaos memory diverges from fault-free run", pt.C)
			}
		}
		if *enforceSLO {
			for _, pt := range points {
				if !pt.Clean.SLOOK {
					log.Fatalf("C=%d: SLO missed", pt.C)
				}
			}
		}
		return
	}

	var plan fault.Plan
	if *chaos {
		plan = exp.ServeChaosPlan(*seed)
	}
	run := exp.ServeRun
	if *breakdown {
		run = exp.ServeRunBreakdown
	}
	rep, _, err := run(w, t.Config(harness.WithFaultPlan(plan)), slo)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case *asJSON:
		out, err := rep.JSON()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", out)
	case t.CSV:
		fmt.Print(rep.CSV())
		if *breakdown {
			fmt.Print(rep.BreakdownCSV())
		}
	default:
		printReport(rep)
	}
	if *enforceSLO && !rep.SLOOK {
		log.Fatal("SLO missed")
	}
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

func printReport(rep serve.Report) {
	fmt.Printf("serve P=%d C=%d seed=%d theta=%g: %d requests (%d get / %d put / %d scan) in %d cycles\n",
		rep.P, rep.C, rep.Seed, rep.Theta, rep.Requests, rep.Gets, rep.Puts, rep.Scans, rep.Cycles)
	if rep.LockTotal > 0 {
		fmt.Printf("  shard locks: %d/%d served in-SSMP\n", rep.LockHits, rep.LockTotal)
	}
	if rep.Dropped > 0 || rep.Retransmit > 0 {
		fmt.Printf("  transport: %d dropped, %d retransmits\n", rep.Dropped, rep.Retransmit)
	}
	if b := rep.Breakdown; b != nil {
		fmt.Printf("  cost breakdown (%.1f attributed cycles/request):\n", b.PerRequestCycles)
		for _, row := range []struct {
			name   string
			cycles int64
		}{
			{"user", b.UserCycles}, {"lock", b.LockCycles}, {"barrier", b.BarrierCycles},
			{"protocol", b.ProtocolCycles}, {"transport", b.TransportCycles},
		} {
			fmt.Printf("    %-10s %14d cycles\n", row.name, row.cycles)
		}
		for _, hl := range b.HotLocks {
			fmt.Printf("    hot lock %-4d %14d cycles\n", hl.ID, hl.Cycles)
		}
	}
	fmt.Printf("  %-8s %6s %12s %12s %12s %12s\n", "phase", "count", "mean", "p50", "p99", "p999")
	for _, ps := range rep.Phases {
		mark := ""
		if !ps.SLOOK {
			mark = "  SLO MISS"
		}
		fmt.Printf("  %-8s %6d %12.1f %12.1f %12.1f %12.1f%s\n",
			ps.Phase, ps.Count, ps.Mean, ps.P50, ps.P99, ps.P999, mark)
	}
	if !rep.SLO.Empty() {
		status := "met"
		if !rep.SLOOK {
			status = "MISSED"
		}
		fmt.Printf("  SLO %s\n", status)
	}
}
