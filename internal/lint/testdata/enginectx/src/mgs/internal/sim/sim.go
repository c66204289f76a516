// Package sim is a miniature stand-in for the real internal/sim, with
// one deliberate violation: Proc.Hack writes engine-owned state from
// proc context.
package sim

type Time int64

type Engine struct {
	now Time
	seq uint64
}

type Label struct{ Kind string }

type Handler interface{ Fire() }

func (e *Engine) Now() Time                           { return e.now }
func (e *Engine) At(t Time, fn func())                { e.seq++; fn() }
func (e *Engine) AtHandler(t Time, h Handler)         { e.seq++; h.Fire() }
func (e *Engine) AtOn(_ *Proc, t Time, fn func())     { e.At(t, fn) }
func (e *Engine) AtChoice(t Time, l Label, fn func()) { e.At(t, fn) }
func (e *Engine) After(d Time, fn func())             { e.At(e.now+d, fn) }

// push is called from proc context but is an Engine method: it is part
// of the sanctioned transfer API, so its own field writes are fine.
func (e *Engine) push(t Time) { e.seq++ }

type Proc struct {
	ID    int
	eng   *Engine
	clock Time
	debt  Time
}

func (p *Proc) Advance(d Time) Time { p.clock += d; return d }
func (p *Proc) Sleep(d Time) {
	p.clock += d
	p.eng.push(p.clock)
}
func (p *Proc) Park()          {}
func (p *Proc) Yield()         { p.Sleep(0) }
func (p *Proc) Wake(t Time)    {}
func (p *Proc) AddDebt(d Time) { p.debt += d }

// Hack reaches around the scheduler and rewinds the engine clock.
func (p *Proc) Hack() {
	p.eng.now = 0 // want `direct write to sim\.Engine field now from proc-context code`
}
