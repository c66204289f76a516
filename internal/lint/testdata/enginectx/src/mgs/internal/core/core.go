package core

import (
	"mgs/internal/msg"
	"mgs/internal/sim"
)

type duq struct {
	queue  []int
	member map[int]bool
}

func (d *duq) add(p int) {
	if !d.member[p] {
		d.member[p] = true
		d.queue = append(d.queue, p)
	}
}

type System struct {
	eng  *sim.Engine
	net  *msg.Network
	duqs []*duq
}

// Access models a processor-side access: proc context, sanctioned APIs.
func (s *System) Access(p *sim.Proc, page int) {
	p.Advance(10)
	s.duqs[0].add(page)
}

// badPoke mutates DUQ membership directly instead of going through add.
func (s *System) badPoke(p *sim.Proc, page int) {
	s.duqs[0].member[page] = true // want `direct write to core\.duq field member from proc-context code`
}

// badHandler schedules a callback that parks the processor: the
// callback runs in engine context and would deadlock the handshake.
func (s *System) badHandler(p *sim.Proc, at sim.Time) {
	s.eng.At(at, func() {
		p.Park() // want `Proc\.Park yields or advances the local clock`
	})
}

// badUpgrade sleeps inside a message handler: every protocol handler
// is a literal passed to SendTagged, and runs in engine context.
func (s *System) badUpgrade(p *sim.Proc, at sim.Time) {
	s.net.SendTagged(sim.Label{Kind: "UPGRADE"}, p.ID, 0, at, func(done sim.Time) {
		p.Sleep(1) // want `Proc\.Sleep yields or advances the local clock`
	})
}

// badHandoff sleeps inside a literal scheduled through the pinned
// forwarder, which is At under another name.
func (s *System) badHandoff(p *sim.Proc, at sim.Time) {
	s.eng.AtOn(p, at, func() {
		p.Sleep(1) // want `Proc\.Sleep yields or advances the local clock`
	})
}

// goodHandler wakes instead: engine-safe.
func (s *System) goodHandler(p *sim.Proc, at sim.Time) {
	s.eng.At(at, func() {
		p.Wake(at)
	})
}

// relay schedules deliver; deliver therefore runs in engine context
// even though it is a named method with a Proc parameter.
func (s *System) relay(p *sim.Proc, at sim.Time) {
	s.eng.At(at, func() { s.deliver(p, at) })
}

func (s *System) deliver(p *sim.Proc, at sim.Time) {
	p.Advance(5) // want `Proc\.Advance yields or advances the local clock`
}

// shared is reachable from both contexts: the analyzer cannot decide
// it and stays silent.
func (s *System) shared(p *sim.Proc) {
	p.Advance(1)
}

func (s *System) Enter(p *sim.Proc) {
	s.shared(p)
}

func (s *System) onPing(p *sim.Proc, at sim.Time) {
	s.eng.At(at, func() { s.shared(p) })
}
