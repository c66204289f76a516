// mgs-run executes one application on one DSSMP configuration and
// prints the runtime breakdown (the data behind one bar of Figures
// 6–10), lock statistics, message traffic, and protocol counters.
//
// Usage:
//
//	mgs-run -app water -p 32 -c 4 [-delay 1000] [-pagesize 1024]
//	        [-small] [-counters] [-no1w] [-parinv] [-update] [-lazy]
//	        [-topology mesh] [-lock mcs] [-barrier dissemination]
package main

import (
	"flag"
	"fmt"
	"log"

	"mgs/internal/cli"
	"mgs/internal/harness"
	"mgs/internal/sim"
	"mgs/internal/stats"
)

func main() {
	t := cli.New("mgs-run").MachineFlags("jacobi", 32, 4, false)
	var (
		delay    = flag.Int64("delay", 1000, "inter-SSMP message delay in cycles")
		pagesize = flag.Int("pagesize", 1024, "page size in bytes")
		counters = flag.Bool("counters", false, "print protocol event counters")
		no1w     = flag.Bool("no1w", false, "disable the single-writer optimization")
		parinv   = flag.Bool("parinv", false, "parallel (not serial) release invalidations")
		update   = flag.Bool("update", false, "update-based (not invalidate) release rounds")
		lazy     = flag.Bool("lazy", false, "lazy (TreadMarks-style) instead of eager release consistency")
	)
	t.Parse()

	cfg := t.Config(
		harness.WithInterSSMPDelay(sim.Time(*delay)),
		harness.WithPageSize(*pagesize))
	cfg.Variant.SingleWriter = !*no1w
	cfg.Variant.SerialInv = !*parinv
	cfg.Variant.UpdateProtocol = *update
	cfg.Variant.LazyRelease = *lazy

	res, err := harness.RunApp(t.Env().Apps(t.App), cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on P=%d C=%d (delay %d, %dB pages)\n", t.App, t.P, t.C, *delay, *pagesize)
	fmt.Printf("  execution time: %d cycles\n", res.Cycles)
	b := res.Breakdown
	total := b.AvgTotal()
	for cat := stats.Category(0); cat < stats.NumCategories; cat++ {
		fmt.Printf("  %-8s %12.0f cycles/proc  (%5.1f%%)\n", cat, b.Avg[cat], 100*b.Avg[cat]/total)
	}
	if res.LockTotal > 0 {
		fmt.Printf("  lock hit ratio: %.3f (%d/%d)\n",
			float64(res.LockHits)/float64(res.LockTotal), res.LockHits, res.LockTotal)
	}
	fmt.Printf("  messages: %d intra-SSMP, %d inter-SSMP (%d bytes)\n",
		res.IntraMsgs, res.InterMsgs, res.InterBytes)
	if *counters {
		fmt.Println("  protocol counters:")
		for _, line := range res.Counters {
			fmt.Printf("    %s\n", line)
		}
	}
}
