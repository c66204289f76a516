package main

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"mgs/internal/cli"
	"mgs/internal/exp"
	"mgs/internal/fault"
	"mgs/internal/sim"
)

// chaos drives seeded chaos sweeps: every application runs under a
// fault-injecting transport (internal/fault) that drops, duplicates,
// reorders, and delays inter-SSMP messages, and the command verifies
// that the protocol still converges — each run must pass its
// application's own Verify AND end with final shared memory
// byte-identical to a fault-free run on the same machine shape. Faults
// may change when everything happens, never what memory holds at the
// end. With -equivalence it checks only that attaching an empty fault
// plan perturbs a run in no way at all.
func chaos(t *cli.Tool, args []string, stdout io.Writer) error {
	t.AppsFlag(strings.Join(exp.AppNames, ",")).ShapeFlags(8, 2, true).SweepFlags()
	var (
		seeds    = t.Flags.Int("seeds", 5, "seeds per app (1..N)")
		drop     = t.Flags.Int("drop", 300, "drop rate, basis points (100 = 1%)")
		dup      = t.Flags.Int("dup", 100, "duplication rate, basis points")
		delay    = t.Flags.Int("delay", 500, "delay rate, basis points")
		maxdelay = t.Flags.Int64("maxdelay", int64(fault.DefaultMaxDelay), "max extra delay, cycles")
		equiv    = t.Flags.Bool("equivalence", false, "only check the zero-fault identity contract")
	)
	if err := t.Parse(args); err != nil {
		return err
	}
	e := t.Env()
	names := t.AppNames()

	if *equiv {
		for _, name := range names {
			if err := exp.ZeroFaultEquivalence(name, t.P, t.C, e); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-12s zero-fault equivalence OK\n", name)
		}
		return nil
	}

	if *seeds < 1 {
		return t.Usagef("-seeds %d: want at least one seed per app", *seeds)
	}
	seedList := make([]uint64, *seeds)
	for i := range seedList {
		seedList[i] = uint64(i + 1)
	}
	mkPlan := func(seed uint64) fault.Plan {
		return fault.Plan{Seed: seed, DropBP: *drop, DupBP: *dup, DelayBP: *delay, MaxDelay: sim.Time(*maxdelay)}
	}
	points, err := exp.ChaosSweep(names, seedList, t.P, t.C, mkPlan, e)
	if err != nil {
		return err
	}

	var bad []error
	for _, pt := range points {
		if !pt.MemOK {
			bad = append(bad, fmt.Errorf("%s seed=%d: final memory diverges from fault-free run", pt.App, pt.Seed))
		}
	}
	if t.CSV {
		w := cli.NewCSV(stdout, "app", "seed", "cycles", "base_cycles", "slowdown",
			"msgs", "dropped", "dup", "delayed", "dupsuppressed", "timeouts",
			"retrans", "acks", "ackdropped", "recovery_cycles", "mem_ok")
		for _, pt := range points {
			f := pt.Res.Fault
			w.Row(pt.App, pt.Seed, pt.Res.Cycles, pt.BaseCycles, pt.Slowdown(),
				f.Messages, f.Dropped, f.Duplicated, f.Delayed, f.DupSuppressed, f.Timeouts,
				f.Retransmits, f.Acks, f.AckDropped, f.RecoveryCycles, pt.MemOK)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "%-12s %5s %10s %9s  %s\n", "app", "seed", "cycles", "slowdown", "transport")
		for _, pt := range points {
			fmt.Fprintf(stdout, "%-12s %5d %10d %8.3fx  %s\n", pt.App, pt.Seed, pt.Res.Cycles, pt.Slowdown(), pt.Res.Fault.String())
		}
	}
	if err := errors.Join(bad...); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "-- %d runs, all byte-identical to fault-free memory\n", len(points))
	return nil
}
