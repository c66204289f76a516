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

// badUpgrade sleeps inside a message handler: a literal converted to
// the msg.Func adapter and passed to SendTagged runs in engine context.
func (s *System) badUpgrade(p *sim.Proc, at sim.Time) {
	s.net.SendTagged(sim.Label{Kind: "UPGRADE"}, p.ID, 0, at, msg.Func(func(done sim.Time) {
		p.Sleep(1) // want `Proc\.Sleep yields or advances the local clock`
	}))
}

// message is a pooled protocol message: SendTagged roots its Deliver,
// and everything Deliver dispatches to, in engine context.
type message struct {
	s    *System
	kind int
	p    *sim.Proc
}

func (m *message) Deliver(at sim.Time) {
	switch m.kind {
	case 0:
		m.p.Wake(at) // engine-safe
	case 1:
		m.s.onRecord(m.p, at)
	}
}

func (s *System) onRecord(p *sim.Proc, at sim.Time) {
	p.Sleep(1) // want `Proc\.Sleep yields or advances the local clock`
}

// sendRecord hands the record to the scheduler.
func (s *System) sendRecord(p *sim.Proc, at sim.Time) {
	s.net.SendTagged(sim.Label{Kind: "REQ"}, p.ID, 0, at, &message{s: s, kind: 1, p: p})
}

// handoff is a lock continuation: AtHandler roots its Fire.
type handoff struct{ p *sim.Proc }

func (h *handoff) Fire() {
	h.p.Park() // want `Proc\.Park yields or advances the local clock`
}

func (s *System) unlock(p *sim.Proc, at sim.Time) {
	s.eng.AtHandler(at+1, &handoff{p: p})
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
