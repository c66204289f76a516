// Package core holds the flows the retired interprocedural taint
// analysis followed from a map range to a sink — charged cycles, the
// event schedule — through returns, parameters and interface calls.
// Each one is rejected here at the range itself, before the value goes
// anywhere; the sorted and commutative variants stay clean.
package core

import "sort"

type Time int64

type Engine struct{}

func (e *Engine) At(t Time, fn func()) {}

type Proc struct{}

func (p *Proc) Advance(d Time) {}

// Keys returns map keys in iteration order; every caller that charges
// or schedules by ks[0] inherits the leak.
func Keys(m map[int]int) []int {
	var out []int
	for k := range m { // want `range over map in deterministic package`
		out = append(out, k)
	}
	return out
}

// SortedKeys collects then sorts: callers see one canonical order.
func SortedKeys(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Tick charges by the first key of each.
func Tick(p *Proc, m map[int]int) {
	p.Advance(Time(Keys(m)[0]))
	p.Advance(Time(SortedKeys(m)[0]))
}

// Debit keeps whichever key came last and charges it in a callee.
func Debit(p *Proc, m map[int]int) {
	var n int
	for k := range m { // want `range over map in deterministic package`
		n = k
	}
	charge(p, Time(n))
}

func charge(p *Proc, d Time) { p.Advance(d) }

// Tally is a commutative reduction over a map: order-independent.
func Tally(p *Proc, m map[int]Time) {
	var total Time
	for _, v := range m {
		total += v
	}
	p.Advance(total)
}

// Local schedules one event per key, in iteration order.
func Local(e *Engine, m map[int]int) {
	for k := range m { // want `range over map in deterministic package`
		e.At(Time(k), func() {})
	}
}

// Charger, aShim and zBase form a call cycle under CHA (aShim.Charge
// calls the interface it implements): the flow-following analysis had
// to reach a fixpoint round it; the range is rejected without looking.
type Charger interface {
	Charge(p *Proc, n Time)
}

type aShim struct{ inner Charger }

func (a aShim) Charge(p *Proc, n Time) { a.inner.Charge(p, n) }

type zBase struct{}

func (zBase) Charge(p *Proc, n Time) { p.Advance(n) }

// Shimmed reaches the sink through the cycle.
func Shimmed(p *Proc, m map[int]int) {
	for k := range m { // want `range over map in deterministic package`
		aShim{zBase{}}.Charge(p, Time(k))
	}
}

// FirstFew stops at whichever key happens to come first: a break out of
// the range is an early return by another name.
func FirstFew(p *Proc, m map[int]int) {
	var x int
	for id := range m { // want `range over map in deterministic package`
		x += id
		break
	}
	p.Advance(Time(x))
}

// InnerBreak leaves only the inner loop; every key is still visited.
func InnerBreak(p *Proc, m map[int][]int) {
	var x int
	for _, vs := range m {
		for _, v := range vs {
			if v < 0 {
				break
			}
			x += v
		}
	}
	p.Advance(Time(x))
}

// FloatSum rounds in iteration order: float addition is not
// associative, so the total's last bits differ run to run.
func FloatSum(m map[int]float64) float64 {
	var s float64
	for _, v := range m { // want `range over map in deterministic package`
		s += v
	}
	return s
}
