package algo

import "mgs/internal/sim"

// newToken builds the paper's token-based distributed lock (§3.2), the
// default: a local lock per SSMP plus a single global lock at the
// token's home. Acquires succeed locally, through hardware shared
// memory, while the SSMP owns the token; only when consecutive acquires
// come from different SSMPs does the token move, via the home — REQ to
// the home, DEMAND to the owner, the token BACK, a GRANT out. The hit
// ratio (acquires needing no inter-SSMP communication / all acquires)
// is the paper's Figure 11 metric. A fresh lock's token sits at its
// home SSMP.
func newToken(env *Env, id, home int) Lock {
	home %= env.NProcs()
	l := &tokenLock{
		env: env, id: id, home: home,
		local:      make([]tokenLocal, env.NSSMP()),
		tokenOwner: env.SSMPOf(home),
	}
	l.local[l.tokenOwner].hasToken = true
	return l
}

type tokenLock struct {
	env  *Env
	id   int
	home int // global processor hosting the global lock

	local []tokenLocal // each element is touched only by its own SSMP

	// Global-lock state: lives at home, mutated only by home-side
	// handlers.
	tokenOwner int
	reqQueue   []int // FIFO of waiting SSMPs
	demandOut  bool  // a DEMAND is outstanding

	holding // only the token-holding SSMP touches it
}

// The lock's messages, and its in-SSMP hand-off.
const (
	tkReq     = iota // LK.REQ: SSMP a wants the token (→ home)
	tkBack           // LK.BACK: SSMP a returns the token (→ home)
	tkDemand         // LK.DEM: the home recalls the token from SSMP a
	tkGrant          // LK.GRANT: the token goes to SSMP a
	tkHandoff        // releaser p passes the lock to q, in its SSMP: an engine event
)

var tokenNames = [...]string{tkReq: "LK.REQ", tkBack: "LK.BACK", tkDemand: "LK.DEM", tkGrant: "LK.GRANT"}

// send sends message k about SSMP s from processor from to processor to.
func (l *tokenLock) send(k uint8, s, from, to int, at sim.Time) {
	l.env.Send(tokenNames[k], l.id, from, to, at, int64(s), l.env.TokenWork(), l, k, args{a: s})
}

// deliver implements receiver.
func (l *tokenLock) deliver(k uint8, a args, at sim.Time) {
	switch k {
	case tkReq:
		l.onTokenReq(a.a, at)
	case tkBack:
		l.onTokenBack(at)
	case tkDemand:
		l.onDemand(a.a, at)
	case tkGrant:
		l.onTokenGrant(a.a, at)
	case tkHandoff:
		// The wake time reads the releaser's clock now, when the event
		// fires, not when it was scheduled.
		a.q.Wake(a.p.Clock() + l.env.LockOp())
	}
}

// tokenLocal is the per-SSMP half of a distributed lock.
type tokenLocal struct {
	hasToken  bool
	held      bool
	waitQ     []*sim.Proc
	requested bool // TOKEN_REQ sent, grant pending
	demand    bool // home wants the token back at next release
}

// Acquire implements Lock.
func (l *tokenLock) Acquire(p *sim.Proc) {
	e := l.env
	s := e.SSMPOf(p.ID)
	ll := &l.local[s]
	if ll.hasToken && !ll.held {
		ll.held = true
		l.heldSince = p.Clock()
		l.hits++
		return
	}
	ll.waitQ = append(ll.waitQ, p)
	if !ll.hasToken && !ll.requested {
		ll.requested = true
		if e.Tracing() {
			e.EmitLock(p.Clock(), p.ID, l.id, "TOKENREQ", "ssmp=%d proc=%d", s, p.ID)
		}
		l.sendReq(p, s)
	}
	e.ParkLock(p) // woken holding the lock
}

// sendReq asks the home for the token on behalf of SSMP s.
func (l *tokenLock) sendReq(p *sim.Proc, s int) {
	e := l.env
	e.ChargeLock(p, e.SendCost())
	l.send(tkReq, s, p.ID, l.home, p.Clock())
}

// sendBack returns SSMP s's token to the home from processor from.
func (l *tokenLock) sendBack(from, s int, at sim.Time) {
	l.send(tkBack, s, from, l.home, at)
}

// Release implements Lock: pass the lock on — to the home if a remote
// SSMP demanded the token, else to the next local waiter.
func (l *tokenLock) Release(p *sim.Proc) {
	e := l.env
	s := e.SSMPOf(p.ID)
	ll := &l.local[s]
	if !ll.held || !ll.hasToken {
		panic("msync: release of a lock not held by this SSMP")
	}
	l.released(e, p)
	ll.held = false
	if ll.demand {
		ll.demand = false
		ll.hasToken = false
		if len(ll.waitQ) > 0 && !ll.requested {
			// Local waiters remain: re-request the token.
			ll.requested = true
			l.sendReq(p, s)
		}
		e.ChargeLock(p, e.SendCost())
		l.sendBack(p.ID, s, p.Clock())
		return
	}
	if len(ll.waitQ) > 0 {
		next := ll.waitQ[0]
		ll.waitQ = append(ll.waitQ[:0], ll.waitQ[1:]...)
		ll.held = true
		l.heldSince = p.Clock() + e.LockOp()
		l.hits++
		if e.Tracing() {
			e.EmitLock(p.Clock(), p.ID, l.id, "HANDOFF", "releaser=%d(clk %d) next=%d(clk %d)", p.ID, p.Clock(), next.ID, next.Clock())
		}
		// An engine event (the waiter is in the releaser's SSMP), not a
		// message. The wake time reads the releaser's clock when the
		// event fires, so a releaser that ran ahead in the meantime
		// delays the waiter: every pinned cycle count depends on it.
		e.At(p.Clock()+e.LockOp(), l, tkHandoff, args{p: p, q: next})
	}
}

// onTokenReq runs at the global lock home: SSMP s wants the token.
func (l *tokenLock) onTokenReq(s int, at sim.Time) {
	if l.env.Tracing() {
		l.env.EmitLock(at, -1, l.id, "TOKENREQ.HOME", "ssmp=%d queue=%v owner=%d", s, l.reqQueue, l.tokenOwner)
	}
	l.reqQueue = append(l.reqQueue, s)
	l.pumpDemand(at)
}

// pumpDemand sends a DEMAND to the current token owner if one is needed
// and none is in flight.
func (l *tokenLock) pumpDemand(at sim.Time) {
	if l.demandOut || len(l.reqQueue) == 0 {
		return
	}
	l.demandOut = true
	e := l.env
	owner := l.tokenOwner
	if e.Tracing() {
		e.EmitLock(at, -1, l.id, "DEMAND", "-> ssmp=%d queue=%v", owner, l.reqQueue)
	}
	l.send(tkDemand, owner, l.home, e.RepProc(owner, l.id), at)
}

// onDemand runs at the token owner SSMP: give the token back to the
// home, now if the local lock is free, or at the next release.
func (l *tokenLock) onDemand(s int, at sim.Time) {
	ll := &l.local[s]
	if l.env.Tracing() {
		l.env.EmitLock(at, -1, l.id, "DEMAND.ARRIVE", "ssmp=%d hasToken=%v held=%v", s, ll.hasToken, ll.held)
	}
	if !ll.hasToken || ll.held {
		// Held: honored at the next release. No token yet: the demand
		// overtook the grant (possible under message jitter), so the
		// grant hands the token on after serving one local acquire.
		ll.demand = true
		return
	}
	ll.hasToken = false
	l.sendBack(l.env.RepProc(s, l.id), s, at)
}

// onTokenBack runs at the home: hand the token to the first queued SSMP.
func (l *tokenLock) onTokenBack(at sim.Time) {
	e := l.env
	if e.Tracing() {
		e.EmitLock(at, -1, l.id, "TOKENBACK", "queue=%v", l.reqQueue)
	}
	l.demandOut = false
	if len(l.reqQueue) == 0 {
		// No one waiting after all; home's SSMP keeps the token.
		s := e.SSMPOf(l.home)
		l.tokenOwner = s
		l.local[s].hasToken = true
		return
	}
	next := l.reqQueue[0]
	l.reqQueue = append(l.reqQueue[:0], l.reqQueue[1:]...)
	l.tokenOwner = next
	l.send(tkGrant, next, l.home, e.RepProc(next, l.id), at)
	// More SSMPs queued: recall the token from its new owner too, after
	// it serves one holder.
	l.pumpDemand(at)
}

// onTokenGrant runs at the requesting SSMP: the token has arrived; grant
// the lock to the first local waiter.
func (l *tokenLock) onTokenGrant(s int, at sim.Time) {
	e := l.env
	ll := &l.local[s]
	if e.Tracing() {
		e.EmitLock(at, -1, l.id, "GRANT", "ssmp=%d waiters=%d demand=%v", s, len(ll.waitQ), ll.demand)
	}
	ll.hasToken = true
	ll.requested = false
	if len(ll.waitQ) == 0 {
		if ll.demand {
			// A demand overtook this grant and nobody is waiting
			// locally: send the token straight back.
			ll.demand = false
			ll.hasToken = false
			l.sendBack(e.RepProc(s, l.id), s, at)
		}
		return
	}
	next := ll.waitQ[0]
	ll.waitQ = append(ll.waitQ[:0], ll.waitQ[1:]...)
	ll.held = true
	l.granted(e, next, at, false)
}

// Dump implements State.
func (l *tokenLock) Dump(f func(format string, args ...any)) {
	f("lock=%d home=%d owner=%d queue=%v demandOut=%v", l.id, l.home, l.tokenOwner, l.reqQueue, l.demandOut)
	for s := range l.local {
		ll := &l.local[s]
		if ll.hasToken || ll.held || len(ll.waitQ) > 0 || ll.requested || ll.demand {
			f("  ssmp=%d hasToken=%v held=%v waitQ=%v requested=%v demand=%v", s, ll.hasToken, ll.held, procIDs(ll.waitQ), ll.requested, ll.demand)
		}
	}
}

// Quiescent implements State: the token is at rest with exactly one
// SSMP, nobody holds or waits, and no recall is in flight.
func (l *tokenLock) Quiescent() error {
	tokens := 0
	for s := range l.local {
		ll := &l.local[s]
		if ll.hasToken {
			tokens++
		}
		if ll.held || len(ll.waitQ) > 0 || ll.requested || ll.demand {
			return quiesceErrf("lock %d (token): ssmp %d not settled (held=%v waiters=%d requested=%v demand=%v)",
				l.id, s, ll.held, len(ll.waitQ), ll.requested, ll.demand)
		}
	}
	if tokens != 1 {
		return quiesceErrf("lock %d (token): %d SSMPs hold the token", l.id, tokens)
	}
	if l.demandOut || len(l.reqQueue) > 0 {
		return quiesceErrf("lock %d (token): home busy (demandOut=%v queue=%v)", l.id, l.demandOut, l.reqQueue)
	}
	return nil
}
