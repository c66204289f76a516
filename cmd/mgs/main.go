// mgs is the command line of the MGS reproduction: one binary whose
// subcommands regenerate the paper's evaluation (§5) and drive the
// experiments built on it. README.md has worked examples of each;
// mgs <command> -h lists a command's flags.
//
// Exit status: 0 on success; 1 when a run failed (verification, memory
// divergence, SLO miss, violation found, rejected configuration) or its
// output could not be written; 2 on a bad command line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"mgs/internal/cli"
	"mgs/internal/core"
	"mgs/internal/exp"
	"mgs/internal/harness"
	"mgs/internal/sim"
	"mgs/internal/stats"
)

// commands is the dispatch table, in the order help lists it. A command
// registers its flags on t, parses args, writes its results to stdout
// and returns an error; only run turns errors into an exit status.
var commands = []struct {
	name, summary string
	run           func(t *cli.Tool, args []string, stdout io.Writer) error
}{
	{"micro", "Table 3: costs of the primitive shared-memory operations", micro},
	{"run", "one application on one DSSMP configuration, with its runtime breakdown", runOne},
	{"sweep", "Table 4, Figures 6-12, the design ablations and the scale sweep", sweep},
	{"sync", "the synchronization zoo: every lock and barrier algorithm across cluster sizes", syncZoo},
	{"serve", "the online-serving workload: per-phase tail latency, SLOs, tail sweep", serveCmd},
	{"trace", "one run's protocol, synchronization and transport event stream", trace},
	{"chaos", "seeded fault-injection sweeps checked against fault-free memory", chaos},
	{"check", "the model checker: every delivery interleaving of small workloads", checkCmd},
	{"profile", "cycle attribution: which pages, locks and barriers the time went to", profile},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one mgs command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	out := &stickyWriter{w: stdout}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		usage(out)
		if out.err != nil {
			fmt.Fprintf(stderr, "mgs help: %v\n", out.err)
			return 1
		}
		return 0
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		t := cli.New("mgs "+c.name, stderr)
		err := c.run(t, args[1:], out)
		if err == nil {
			err = out.err
		}
		switch {
		case err == nil, errors.Is(err, flag.ErrHelp):
			return 0
		case errors.Is(err, cli.ErrUsage):
			return 2
		}
		t.Logf("%v", err)
		return 1
	}
	fmt.Fprintf(stderr, "mgs: unknown command %q\n", args[0])
	usage(stderr)
	return 2
}

// stickyWriter is the stdout every command writes to: it keeps the
// first write error, writes nothing after it, and lets run turn a lost
// write into exit status 1 whichever printer lost it.
type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) Write(b []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n, err := s.w.Write(b)
	s.err = err
	return n, err
}

// fixed renders v with prec decimals: the CSV columns whose precision
// is part of the published format, where cli.CSV's rule would keep six
// significant digits.
func fixed(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// writeJSON prints v as one indented JSON document, the form of every
// mgs -json output.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: mgs <command> [flags]    (mgs <command> -h lists a command's flags)")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.summary)
	}
}

// micro reproduces Table 3 of the MGS paper: the cost of primitive
// shared-memory operations, measured through the full protocol stack on
// a 0-cycle-delay machine with 1K-byte pages.
func micro(t *cli.Tool, args []string, stdout io.Writer) error {
	if err := t.Parse(args); err != nil {
		return err
	}
	fmt.Fprint(stdout, exp.Table3())
	return nil
}

// runOne executes one application on one DSSMP configuration and prints
// the runtime breakdown (the data behind one bar of Figures 6–10), lock
// statistics, message traffic, and protocol counters.
func runOne(t *cli.Tool, args []string, stdout io.Writer) error {
	t.MachineFlags("jacobi", 32, 4, false)
	variants := core.Variants()
	names := make([]string, len(variants))
	for i, nv := range variants {
		names[i] = nv.Name
	}
	var (
		delay    = t.Flags.Int64("delay", 1000, "inter-SSMP message delay in cycles")
		pagesize = t.Flags.Int("pagesize", 1024, "page size in bytes")
		counters = t.Flags.Bool("counters", false, "print protocol event counters")
		variant  = t.Flags.String("variant", names[0], "protocol variant: "+strings.Join(names, ", "))
	)
	if err := t.Parse(args); err != nil {
		return err
	}
	v := slices.Index(names, *variant)
	if v < 0 {
		return fmt.Errorf("unknown variant %q (known: %s)", *variant, strings.Join(names, ", "))
	}

	cfg := t.Config(
		harness.WithInterSSMPDelay(sim.Time(*delay)),
		harness.WithPageSize(*pagesize))
	cfg.Variant = variants[v].Variant

	res, err := harness.RunApp(t.Env().Apps(t.App), cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%s on P=%d C=%d (delay %d, %dB pages)\n", t.App, t.P, t.C, *delay, *pagesize)
	fmt.Fprintf(stdout, "  execution time: %d cycles\n", res.Cycles)
	b := res.Breakdown
	total := b.AvgTotal()
	for cat := stats.Category(0); cat < stats.NumCategories; cat++ {
		fmt.Fprintf(stdout, "  %-8s %12.0f cycles/proc  (%5.1f%%)\n", cat, b.Avg[cat], 100*b.Avg[cat]/total)
	}
	if res.LockTotal > 0 {
		fmt.Fprintf(stdout, "  lock hit ratio: %.3f (%d/%d)\n",
			float64(res.LockHits)/float64(res.LockTotal), res.LockHits, res.LockTotal)
	}
	fmt.Fprintf(stdout, "  messages: %d intra-SSMP, %d inter-SSMP (%d bytes)\n",
		res.IntraMsgs, res.InterMsgs, res.InterBytes)
	if *counters {
		fmt.Fprintln(stdout, "  protocol counters:")
		for _, line := range res.Counters {
			fmt.Fprintf(stdout, "    %s\n", line)
		}
	}
	return nil
}

// syncZoo compares the synchronization zoo: apps.SyncBench runs under
// every lock algorithm (against the default tree barrier) and every
// barrier algorithm (against the default token lock) across cluster
// sizes, reporting MGS lock hit ratio, critical-section dilation, and
// mean barrier wait — fault-free and under a 5%-loss transport whose
// final memory must stay byte-identical to the fault-free run's (any
// divergence is an error). C ranges over SyncClusterSizes(-p).
func syncZoo(t *cli.Tool, args []string, stdout io.Writer) error {
	if err := t.ShapeFlags(32, 0, true).SweepFlags().Parse(args); err != nil {
		return err
	}
	points, err := exp.SyncSweep(t.P, exp.SyncClusterSizes(t.P), t.Env())
	if err != nil {
		return err
	}

	if t.CSV {
		w := cli.NewCSV(stdout, "lock", "barrier", "c", "cycles", "lock_hit_ratio",
			"cs_dilation", "barrier_mean_wait", "loss5_cycles", "loss5_memok")
		for _, pt := range points {
			w.Row(pt.Lock, pt.Barrier, pt.C, pt.Cycles, fixed(pt.LockHitRatio, 3),
				fixed(pt.CSDilation, 2), fixed(pt.BarrierMeanWait, 0), pt.LossCycles, pt.MemOK)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "synchronization zoo, syncbench (P=%d)\n", t.P)
		fmt.Fprintf(stdout, "  %-10s %-13s %-4s %12s %8s %9s %12s %14s %6s\n",
			"lock", "barrier", "C", "cycles", "lockhit", "csdilate", "barrierwait", "5%loss cycles", "memok")
		for _, pt := range points {
			fmt.Fprintf(stdout, "  %-10s %-13s %-4d %12d %8.3f %9.2f %12.0f %14d %6v\n",
				pt.Lock, pt.Barrier, pt.C, pt.Cycles, pt.LockHitRatio,
				pt.CSDilation, pt.BarrierMeanWait, pt.LossCycles, pt.MemOK)
		}
	}

	var bad []error
	for _, pt := range points {
		if !pt.MemOK {
			bad = append(bad, fmt.Errorf("%s/%s C=%d: 5%%-loss memory diverges from fault-free run",
				pt.Lock, pt.Barrier, pt.C))
		}
	}
	return errors.Join(bad...)
}
