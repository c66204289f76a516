package algo

import (
	"fmt"

	"mgs/internal/sim"
)

// gate is the per-SSMP combining stage the SSMP-level barriers share:
// processors of one SSMP count in through hardware shared memory; the
// last arriver triggers the inter-SSMP protocol.
type gate struct {
	count   int
	waiting []*sim.Proc
	// maxClock is the latest virtual arrival time this episode. The
	// upward step is timestamped with it: under direct execution a
	// run-ahead processor can arrive first in engine order with a
	// far-future clock, and the step must not depart before every local
	// arrival's virtual time.
	maxClock sim.Time
}

// arrive registers p and reports whether p completed the SSMP (and if
// so, the virtual time the SSMP's upward step may depart).
func (g *gate) arrive(p *sim.Proc, csize int) (last bool, when sim.Time) {
	g.count++
	if p.Clock() > g.maxClock {
		g.maxClock = p.Clock()
	}
	g.waiting = append(g.waiting, p)
	if g.count < csize {
		return false, 0
	}
	when = g.maxClock
	g.count, g.maxClock = 0, 0
	return true, when
}

// release wakes every gated processor, staggered by quantum/4 per
// waiter — the sequential reads of the shared release flag.
func (g *gate) release(at, quantum sim.Time) {
	for i, p := range g.waiting {
		p.Wake(at + sim.Time(i+1)*quantum/4)
	}
	g.waiting = g.waiting[:0]
}

// idle reports whether the gate holds no partial episode.
func (g *gate) idle() bool { return g.count == 0 && len(g.waiting) == 0 }

// quiesceErrf builds a quiescence-violation error.
func quiesceErrf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	r := 0
	for 1<<r < n {
		r++
	}
	return r
}
