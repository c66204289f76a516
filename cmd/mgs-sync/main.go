// mgs-sync compares the synchronization zoo: apps.SyncBench runs under
// every lock algorithm (against the default tree barrier) and every
// barrier algorithm (against the default token lock) across cluster
// sizes, reporting MGS lock hit ratio, critical-section dilation, and
// mean barrier wait — fault-free and under a 5%-loss transport whose
// final memory must stay byte-identical to the fault-free run's.
//
// Usage:
//
//	mgs-sync                     # P=32, C in {1,4,8,32}
//	mgs-sync -p 8 -small
//	mgs-sync -csv
//
// Exit status is nonzero if any 5%-loss run diverges from fault-free
// memory.
package main

import (
	"fmt"
	"log"
	"os"

	"mgs/internal/cli"
	"mgs/internal/exp"
)

func main() {
	t := cli.New("mgs-sync").ShapeFlags(32, 0, true).SweepFlags().Parse()

	cs := exp.SyncClusterSizes(t.P)
	points, err := exp.SyncSweep(t.P, cs, t.Env())
	if err != nil {
		log.Fatal(err)
	}

	if t.CSV {
		fmt.Print(exp.SyncCSV(points))
	} else {
		fmt.Printf("synchronization zoo, syncbench (P=%d)\n", t.P)
		fmt.Printf("  %-10s %-13s %-4s %12s %8s %9s %12s %14s %6s\n",
			"lock", "barrier", "C", "cycles", "lockhit", "csdilate", "barrierwait", "5%loss cycles", "memok")
		for _, pt := range points {
			fmt.Printf("  %-10s %-13s %-4d %12d %8.3f %9.2f %12.0f %14d %6v\n",
				pt.Lock, pt.Barrier, pt.C, pt.Cycles, pt.LockHitRatio,
				pt.CSDilation, pt.BarrierMeanWait, pt.LossCycles, pt.MemOK)
		}
	}

	bad := 0
	for _, pt := range points {
		if !pt.MemOK {
			bad++
			fmt.Fprintf(os.Stderr, "mgs-sync: %s/%s C=%d: 5%%-loss memory diverges from fault-free run\n",
				pt.Lock, pt.Barrier, pt.C)
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
}
