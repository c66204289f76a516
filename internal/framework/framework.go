// Package framework implements the paper's DSSMP performance framework
// (§2.4, Figure 2): given execution times across cluster sizes at fixed
// P, it computes the three characterization metrics — breakup penalty,
// multigrain potential, and multigrain curvature.
package framework

import (
	"fmt"
	"sort"
)

// Point is one cluster size's execution time.
type Point struct {
	C    int
	Time float64 // execution time (cycles)
}

// Metrics characterizes an application's behaviour on DSSMPs.
type Metrics struct {
	// BreakupPenalty is (T(P/2) - T(P)) / T(P): the minimum cost of
	// breaking the tightly-coupled machine in two. The paper quotes it
	// as a percentage (Jacobi 16%, Water 322%, TSP 2270%).
	BreakupPenalty float64
	// MultigrainPotential is (T(1) - T(P/2)) / T(1): the fraction of
	// the all-software execution time recovered by clustering (Water
	// 67%, Barnes-Hut 85%).
	MultigrainPotential float64
	// CurvatureIndex is the fraction of the multigrain potential
	// achieved by the geometric-middle cluster size. Above 0.5 the
	// curve is convex (gains come early, at small clusters); below,
	// concave (gains need large clusters).
	CurvatureIndex float64
}

// Convex reports whether most of the potential arrives at small
// clusters.
func (m Metrics) Convex() bool { return m.CurvatureIndex > 0.5 }

// Curvature names the curve shape as the paper does.
func (m Metrics) Curvature() string {
	if m.Convex() {
		return "convex"
	}
	return "concave"
}

// String renders the metrics in the paper's vocabulary.
func (m Metrics) String() string {
	return fmt.Sprintf("breakup penalty %.0f%%, multigrain potential %.0f%%, %s curvature",
		m.BreakupPenalty*100, m.MultigrainPotential*100, m.Curvature())
}

// Analyze computes the metrics from a cluster-size sweep. Points must
// cover C = 1 through C = P in powers of two (any order); it panics on
// fewer than three points.
func Analyze(points []Point) Metrics {
	if len(points) < 3 {
		panic("framework: need at least C=1, C=P/2, C=P points")
	}
	ps := append([]Point(nil), points...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].C < ps[j].C })
	t := func(c int) float64 {
		for _, p := range ps {
			if p.C == c {
				return p.Time
			}
		}
		panic(fmt.Sprintf("framework: no point for C=%d", c))
	}
	p := ps[len(ps)-1].C
	t1, tHalf, tP := t(1), t(p/2), t(p)

	m := Metrics{
		BreakupPenalty:      (tHalf - tP) / tP,
		MultigrainPotential: (t1 - tHalf) / t1,
	}
	// Geometric middle of the software region [1, P/2].
	mid := 1
	for mid*mid < p/2 {
		mid *= 2
	}
	if span := t1 - tHalf; span > 0 {
		m.CurvatureIndex = (t1 - t(mid)) / span
	}
	return m
}
