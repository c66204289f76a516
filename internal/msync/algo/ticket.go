package algo

import "mgs/internal/sim"

// newTicket builds the centralized ticket lock: every acquire draws a ticket
// at the lock's home processor and is granted in strict ticket order.
// Perfectly fair (FIFO by home arrival) but with no SSMP locality —
// every acquire pays a request/grant message pair to the home and every
// release a further message, so its hit ratio is simply the fraction of
// contenders that share the home's SSMP. The home is the single
// serialization point, which makes the protocol trivially robust to
// message reordering: requests are ordered by home arrival, releases
// are anonymous, and a release can never overtake the grant that caused
// it (the grant is the holder's causal past).
func newTicket(env *Env, id, home int) Lock {
	return &ticketLock{env: env, id: id, home: home % env.NProcs()}
}

// ticketLock state lives at the home processor's handlers.
type ticketLock struct {
	env  *Env
	id   int
	home int

	nextTicket int64       // home-side handlers only
	nowServing int64       // home-side handlers only
	queue      []*sim.Proc // home-side handlers only; FIFO by home arrival

	holding
}

// The lock's messages.
const (
	tktReq   = iota // TKT.REQ: p wants a ticket (→ home)
	tktGrant        // TKT.GRANT: p holds the lock (home →)
	tktRel          // TKT.REL: the current ticket is done (→ home)
)

// deliver implements receiver.
func (l *ticketLock) deliver(k uint8, a args, at sim.Time) {
	switch k {
	case tktReq:
		l.onReq(a.p, at)
	case tktGrant:
		l.granted(l.env, a.p, at, l.env.SSMPOf(a.p.ID) == l.env.SSMPOf(l.home))
	case tktRel:
		l.onRel(at)
	}
}

// Acquire implements Lock: request a ticket from the home and park
// until the grant message wakes us.
func (l *ticketLock) Acquire(p *sim.Proc) {
	e := l.env
	if e.Tracing() {
		e.EmitLock(p.Clock(), p.ID, l.id, "TKT.REQ", "proc=%d", p.ID)
	}
	e.ChargeLock(p, e.SendCost())
	e.Send("TKT.REQ", l.id, p.ID, l.home, p.Clock(), int64(p.ID), e.TokenWork(), l, tktReq, args{p: p})
	e.ParkLock(p) // woken holding the lock
}

// onReq runs at the home: draw a ticket; grant immediately if it is
// already being served (the lock is free), else queue.
func (l *ticketLock) onReq(p *sim.Proc, at sim.Time) {
	t := l.nextTicket
	l.nextTicket++
	if l.env.Tracing() {
		l.env.EmitLock(at, -1, l.id, "TKT.DRAW", "proc=%d ticket=%d serving=%d", p.ID, t, l.nowServing)
	}
	if t == l.nowServing {
		l.grant(p, at)
		return
	}
	l.queue = append(l.queue, p)
}

// grant runs at the home: send the lock to p, a hit if the grant never
// leaves the home's SSMP.
func (l *ticketLock) grant(p *sim.Proc, at sim.Time) {
	e := l.env
	if e.Tracing() {
		e.EmitLock(at, -1, l.id, "TKT.GRANT", "proc=%d", p.ID)
	}
	e.Send("TKT.GRANT", l.id, l.home, p.ID, at, int64(p.ID), e.TokenWork(), l, tktGrant, args{p: p})
}

// Release implements Lock: notify the home, which advances nowServing
// and grants the next queued ticket. The release is asynchronous — the
// releaser continues immediately.
func (l *ticketLock) Release(p *sim.Proc) {
	e := l.env
	l.released(e, p)
	if e.Tracing() {
		e.EmitLock(p.Clock(), p.ID, l.id, "TKT.REL", "proc=%d", p.ID)
	}
	e.ChargeLock(p, e.SendCost())
	e.Send("TKT.REL", l.id, p.ID, l.home, p.Clock(), int64(p.ID), e.TokenWork(), l, tktRel, args{})
}

// onRel runs at the home: the current ticket is done.
func (l *ticketLock) onRel(at sim.Time) {
	l.nowServing++
	if len(l.queue) == 0 {
		return
	}
	next := l.queue[0]
	l.queue = l.queue[1:]
	l.grant(next, at)
}

// Dump implements State.
func (l *ticketLock) Dump(f func(format string, args ...any)) {
	f("lock=%d algo=ticket home=%d next=%d serving=%d queue=%v", l.id, l.home, l.nextTicket, l.nowServing, procIDs(l.queue))
}

// Quiescent implements State: every drawn ticket must be served and
// released.
func (l *ticketLock) Quiescent() error {
	if len(l.queue) > 0 {
		return quiesceErrf("lock %d (ticket): %d requests still queued", l.id, len(l.queue))
	}
	if l.nextTicket != l.nowServing {
		return quiesceErrf("lock %d (ticket): ticket %d drawn but serving %d (held or grant in flight)", l.id, l.nextTicket, l.nowServing)
	}
	return nil
}
