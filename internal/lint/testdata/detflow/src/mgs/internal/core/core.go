// Package core exercises detflow's source-to-sink tracking, both local
// and through the facts the cache fixture exports.
package core

import (
	"math/rand"

	"mgs/internal/cache"
	"mgs/internal/sim"
)

// Tick charges cycles derived from map iteration order, imported
// through a cross-package return fact.
func Tick(p *sim.Proc, m map[int]int) {
	ks := cache.Keys(m)
	p.Advance(sim.Time(ks[0])) // want `value derived from map iteration order .*flows into charged cycles \(Proc\.Advance\)`
}

// TickSorted consumes the cleansed variant: no finding.
func TickSorted(p *sim.Proc, m map[int]int) {
	ks := cache.SortedKeys(m)
	p.Advance(sim.Time(ks[0]))
}

// Jitter schedules with unseeded randomness.
func Jitter(e *sim.Engine) {
	d := rand.Intn(10)
	e.At(sim.Time(d), func() {}) // want `value derived from unseeded randomness .*flows into the committed event order \(Engine\.At\)`
}

// Warmup draws from a seeded *rand.Rand — a pure function of its seed,
// no finding.
func Warmup(e *sim.Engine, r *rand.Rand) {
	e.At(sim.Time(r.Intn(10)), func() {})
}

// Relay routes the taint through a parameter-to-return fact.
func Relay(p *sim.Proc, m map[int]int) {
	ks := cache.Keys(m)
	p.Advance(sim.Time(cache.First(ks))) // want `map iteration order .*charged cycles`
}

// Debit reaches the sink inside the callee through its SinkParams
// fact.
func Debit(p *sim.Proc, m map[int]int) {
	var n int
	for k := range m {
		n = k
	}
	cache.Charge(p, sim.Time(n)) // want `map iteration order .*via cache\.Charge`
}

// Tally is a commutative reduction over a map: order-independent, no
// finding.
func Tally(p *sim.Proc, m map[int]sim.Time) {
	var total sim.Time
	for _, v := range m {
		total += v
	}
	p.Advance(total)
}

// Local keeps the whole flow inside one function: range key into the
// event schedule.
func Local(e *sim.Engine, m map[int]int) {
	for k := range m {
		e.At(sim.Time(k), func() {}) // want `map iteration order .*committed event order`
	}
}

// Charger, aShim and zBase form a call cycle under CHA: aShim.Charge
// calls the interface it implements, so it is its own target, and it
// sorts before the implementation that reaches the sink. The sink
// fact's explanation then grows on every pass; the fixpoint must
// compare parameter indices only or it never terminates.
type Charger interface {
	Charge(p *sim.Proc, n sim.Time)
}

type aShim struct{ inner Charger }

func (a aShim) Charge(p *sim.Proc, n sim.Time) { a.inner.Charge(p, n) }

type zBase struct{}

func (zBase) Charge(p *sim.Proc, n sim.Time) { p.Advance(n) }

// Shimmed reaches the sink through the cycle.
func Shimmed(p *sim.Proc, m map[int]int) {
	for k := range m {
		aShim{zBase{}}.Charge(p, sim.Time(k)) // want `map iteration order .*charged cycles \(Proc\.Advance\)`
	}
}
