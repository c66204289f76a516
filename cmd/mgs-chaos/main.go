// mgs-chaos drives seeded chaos sweeps: every application runs under a
// fault-injecting transport (internal/fault) that drops, duplicates,
// reorders, and delays inter-SSMP messages, and the tool verifies that
// the protocol still converges — each run must pass its application's
// own Verify AND end with final shared memory byte-identical to a
// fault-free run on the same machine shape. Faults may change when
// everything happens, never what memory holds at the end.
//
// Usage:
//
//	mgs-chaos                          # all apps, seeds 1-5, default rates
//	mgs-chaos -apps water,tsp -seeds 3
//	mgs-chaos -drop 500 -dup 200 -delay 500 -maxdelay 4000
//	mgs-chaos -equivalence             # zero-fault identity check only
//
// Exit status is nonzero if any run fails verification, diverges from
// the fault-free memory image, or (with -equivalence) if attaching an
// empty fault plan perturbs a run in any way.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"mgs/internal/cli"
	"mgs/internal/exp"
	"mgs/internal/fault"
	"mgs/internal/sim"
)

func main() {
	t := cli.New("mgs-chaos").AppsFlag(strings.Join(exp.AppNames, ",")).ShapeFlags(8, 2, true).SweepFlags()
	var (
		seeds    = flag.Int("seeds", 5, "seeds per app (1..N)")
		drop     = flag.Int("drop", 300, "drop rate, basis points (100 = 1%)")
		dup      = flag.Int("dup", 100, "duplication rate, basis points")
		delay    = flag.Int("delay", 500, "delay rate, basis points")
		maxdelay = flag.Int64("maxdelay", int64(fault.DefaultMaxDelay), "max extra delay, cycles")
		equiv    = flag.Bool("equivalence", false, "only check the zero-fault identity contract")
	)
	t.Parse()
	asCSV := &t.CSV

	e := t.Env()
	names := t.AppNames()

	if *equiv {
		for _, name := range names {
			if err := exp.ZeroFaultEquivalence(name, t.P, t.C, e); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-12s zero-fault equivalence OK\n", name)
		}
		return
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
		log.Fatal(err)
	}

	w := csv.NewWriter(os.Stdout)
	if *asCSV {
		w.Write([]string{"app", "seed", "cycles", "base_cycles", "slowdown",
			"msgs", "dropped", "dup", "delayed", "dupsuppressed", "timeouts",
			"retrans", "acks", "ackdropped", "recovery_cycles", "mem_ok"})
	} else {
		fmt.Printf("%-12s %5s %10s %9s  %s\n", "app", "seed", "cycles", "slowdown", "transport")
	}
	bad := 0
	for _, pt := range points {
		f := pt.Res.Fault
		if *asCSV {
			w.Write([]string{pt.App, strconv.FormatUint(pt.Seed, 10),
				strconv.FormatInt(int64(pt.Res.Cycles), 10),
				strconv.FormatInt(int64(pt.BaseCycles), 10),
				strconv.FormatFloat(pt.Slowdown(), 'g', 6, 64),
				strconv.FormatInt(f.Messages, 10), strconv.FormatInt(f.Dropped, 10),
				strconv.FormatInt(f.Duplicated, 10), strconv.FormatInt(f.Delayed, 10),
				strconv.FormatInt(f.DupSuppressed, 10), strconv.FormatInt(f.Timeouts, 10),
				strconv.FormatInt(f.Retransmits, 10), strconv.FormatInt(f.Acks, 10),
				strconv.FormatInt(f.AckDropped, 10),
				strconv.FormatInt(int64(f.RecoveryCycles), 10),
				strconv.FormatBool(pt.MemOK)})
		} else {
			fmt.Printf("%-12s %5d %10d %8.3fx  %s\n", pt.App, pt.Seed, pt.Res.Cycles, pt.Slowdown(), f.String())
		}
		if !pt.MemOK {
			bad++
			fmt.Fprintf(os.Stderr, "mgs-chaos: %s seed=%d: final memory diverges from fault-free run\n", pt.App, pt.Seed)
		}
	}
	w.Flush()
	if bad > 0 {
		os.Exit(1)
	}
	fmt.Printf("-- %d runs, all byte-identical to fault-free memory\n", len(points))
}
