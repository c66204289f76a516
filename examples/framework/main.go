// The paper's §2.4 performance framework applied end to end: sweep an
// application across cluster sizes at fixed P and compute breakup
// penalty, multigrain potential, and multigrain curvature.
//
//	go run ./examples/framework [-app water] [-p 16]
package main

import (
	"flag"
	"fmt"
	"log"

	"mgs/internal/exp"
	"mgs/internal/framework"
)

func main() {
	app := flag.String("app", "water", "application to characterize")
	p := flag.Int("p", 16, "total processors")
	flag.Parse()

	points, metrics, err := exp.FigureSweep(*app, *p, exp.Env{Apps: exp.SmallApp})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s across cluster sizes (P=%d):\n", *app, *p)
	fmt.Print(framework.Table(exp.FrameworkPoints(points)))
	fmt.Printf("\n%s\n\n", metrics)
	if metrics.Convex() {
		fmt.Println("Convex curvature: most of the software-DSM cost disappears with")
		fmt.Println("small clusters — this application suits DSSMPs built from small")
		fmt.Println("multiprocessors (the paper's 'curve B').")
	} else {
		fmt.Println("Concave curvature: the gains only arrive with large clusters —")
		fmt.Println("this application wants tight coupling (the paper's 'curve A').")
	}
}
