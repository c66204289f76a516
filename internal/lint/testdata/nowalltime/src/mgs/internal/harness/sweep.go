// Package harness mirrors the real internal/harness for the nowalltime
// fixture: it runs on the host, but the sweep CSVs it produces are
// promised byte-identical across runs, so the source bans reach it
// (together with stats, exp and cli) even though it is not on the
// simulated path.
package harness

import (
	"math/rand"
	"time"
)

// Point is one sweep row.
type Point struct {
	Delay  int
	Cycles int64
}

// Jitter perturbs a sweep point from the process-global source: the CSV
// row differs run to run whether or not the value ever reaches the
// engine.
func Jitter(p Point) Point {
	p.Delay += rand.Intn(10) // want `global rand\.Intn draws from the process-wide source`
	return p
}

// Warmup draws from a seeded *rand.Rand — a pure function of its seed,
// no finding.
func Warmup(p Point, r *rand.Rand) Point {
	p.Delay += r.Intn(10)
	return p
}

// Stamped puts host time into a row.
func Stamped(p Point) Point {
	p.Cycles = time.Now().UnixNano() // want `time\.Now reads the host clock`
	return p
}
