// Interconnect topology study: the same application on the paper's
// uniform fixed-delay inter-SSMP LAN versus the contended 2D-mesh
// extension, at a per-hop latency chosen so the mean uncontended mesh
// latency is comparable to the uniform delay. The difference isolates
// what the paper's emulation abstracts away: distance non-uniformity
// and link contention.
//
//	go run ./examples/mesh [-app water] [-p 16] [-perhop 250]
package main

import (
	"flag"
	"fmt"
	"log"

	"mgs"
	"mgs/internal/exp"
	"mgs/internal/sim"
)

func main() {
	app := flag.String("app", "water", "application to run")
	p := flag.Int("p", 16, "total processors")
	perHop := flag.Int64("perhop", 250, "mesh per-hop latency (cycles)")
	flag.Parse()

	fmt.Printf("%s, P=%d: uniform LAN (1000 cycles flat) vs 2D mesh (%d cycles/hop)\n\n",
		*app, *p, *perHop)
	fmt.Printf("  %-4s %14s %14s %10s %12s\n", "C", "uniform", "mesh", "mesh/unif", "link wait")
	for c := 1; c < *p; c *= 2 {
		uni, _ := run(*app, *p, c, 0)
		mesh, wait := run(*app, *p, c, sim.Time(*perHop))
		fmt.Printf("  %-4d %14d %14d %10.3f %12d\n",
			c, uni.Cycles, mesh.Cycles,
			float64(mesh.Cycles)/float64(uni.Cycles), wait)
	}
	fmt.Println("\nSSMPs near each other in the grid talk faster than the uniform")
	fmt.Println("LAN; far corners and contended links talk slower. Whether the mesh")
	fmt.Println("wins depends on how the application's sharing maps onto the grid.")
}

// run executes the app once; perHop > 0 selects the mesh topology. It
// returns the result and the total cycles messages spent queued on busy
// mesh links.
func run(app string, p, c int, perHop sim.Time) (mgs.Result, int64) {
	cfg := mgs.NewConfig(p, c)
	if perHop > 0 {
		cfg.Msg.Topology = mgs.NewMesh2D()
		cfg.Msg.InterPerHop = perHop
	}
	a := exp.SmallApp(app)
	m := mgs.NewMachine(cfg)
	a.Setup(m)
	res, err := m.Run(a.Body)
	if err != nil {
		log.Fatal(err)
	}
	if err := a.Verify(m); err != nil {
		log.Fatalf("verification: %v", err)
	}
	return res, m.Net.Counters.LinkWaitCycles
}
