package algo

import "mgs/internal/sim"

// MCS is the message-passing MCS queue lock: the lock's home holds only
// the queue tail; each contender swaps itself in with one message and
// thereafter the lock travels point-to-point from predecessor to
// successor. Under contention a handoff is a single message between
// consecutive holders — a hit whenever they share an SSMP — so locality
// follows the queue order rather than token residency.
//
// Reordering robustness: SWAPs serialize at the home, so queue order is
// home-arrival order. Every tenure is tagged with a per-processor
// sequence number; SET-NEXT and MUSTPASS messages carry the tenure they
// belong to, and a node keeps per-tenure pending lists, so a delayed
// SET-NEXT from an old tenure can never hand the lock to the wrong
// tenure's successor no matter how deliveries interleave.
type MCS struct{}

// Name implements LockAlgo.
func (MCS) Name() string { return "mcs" }

// NewLock implements LockAlgo.
func (MCS) NewLock(env *Env, id, home int) Lock {
	return &mcsLock{
		env: env, id: id, home: home % env.NProcs(),
		tail: -1, node: make([]mcsNode, env.NProcs()),
	}
}

// mcsPend is a successor learned for a specific tenure.
type mcsPend struct {
	succ *sim.Proc
	seq  int64
}

// mcsNode is one processor's queue node. Its fields are touched by
// handlers delivered to that processor and by the processor itself.
type mcsNode struct {
	seq      int64     // tenure number, incremented at acquire
	pending  []mcsPend // SET-NEXTs not yet consumed, by tenure
	mustPass []int64   // tenures released before their successor was known
}

// mcsLock: the tail lives at the home; nodes live at their processors.
type mcsLock struct {
	env  *Env
	id   int
	home int

	tail    int   // home-side handlers only
	tailSeq int64 // home-side handlers only

	node []mcsNode // each element is touched only by its own processor's handlers

	heldSince sim.Time // single holder at a time

	hits  int64
	total int64

	free []*mcsMsg // delivered messages, for send
}

// mcsKind names one of the lock's messages.
type mcsKind uint8

const (
	mcsSwap     mcsKind = iota // p swaps tenure seq into the queue (→ home)
	mcsGrant                   // the queue was empty: p holds the lock (home →)
	mcsSetNext                 // tenure seq of pid learns its successor p (home →)
	mcsPass                    // the lock passes from pid to p
	mcsRel                     // tenure seq of pid ends (→ home)
	mcsMustPass                // tenure seq of pid has a successor in flight (home →)
)

var mcsNames = [...]string{mcsSwap: "MCS.SWAP", mcsGrant: "MCS.GRANT", mcsSetNext: "MCS.SETNEXT",
	mcsPass: "MCS.PASS", mcsRel: "MCS.REL", mcsMustPass: "MCS.MUSTPASS"}

// mcsMsg is one pooled MCS message (a msg.Handler). It goes back on the
// lock's free list before its handler runs.
type mcsMsg struct {
	l    *mcsLock
	kind mcsKind
	p    *sim.Proc
	pid  int
	seq  int64
}

// send sends message k from processor from to processor to; the
// arguments its handler reads are p, pid and seq, as its kind lists.
func (l *mcsLock) send(k mcsKind, from, to int, at sim.Time, aux int64, p *sim.Proc, pid int, seq int64) {
	var m *mcsMsg
	if n := len(l.free) - 1; n >= 0 {
		m, l.free = l.free[n], l.free[:n]
	} else {
		m = &mcsMsg{l: l}
	}
	m.kind, m.p, m.pid, m.seq = k, p, pid, seq
	l.env.Send(mcsNames[k], l.id, from, to, at, aux, l.env.TokenWork(), m)
}

// Deliver runs the message's handler (msg.Handler).
func (m *mcsMsg) Deliver(at sim.Time) {
	l, k, p, pid, seq := m.l, m.kind, m.p, m.pid, m.seq
	m.p = nil
	l.free = append(l.free, m)
	switch k {
	case mcsSwap:
		l.onSwap(p, seq, at)
	case mcsGrant, mcsPass:
		l.wake(p, pid, at)
	case mcsSetNext:
		l.onSetNext(pid, seq, p, at)
	case mcsRel:
		l.onRel(pid, seq, at)
	case mcsMustPass:
		l.onMustPass(pid, seq, at)
	}
}

// Acquire implements Lock: swap into the queue at the home, park until
// a GRANT (from the home, queue was empty) or a PASS (from the
// predecessor) wakes us.
func (l *mcsLock) Acquire(p *sim.Proc) {
	e := l.env
	l.total++
	e.ChargeLock(p, e.LockOp())
	n := &l.node[p.ID]
	n.seq++
	seq := n.seq
	if e.Tracing() {
		e.EmitLock(p.Clock(), p.ID, l.id, "MCS.SWAP", "proc=%d seq=%d", p.ID, seq)
	}
	e.ChargeLock(p, e.SendCost())
	l.send(mcsSwap, p.ID, l.home, p.Clock(), seq, p, 0, seq)
	c0 := p.Clock()
	p.Park() // woken holding the lock
	e.LockWaited(p, p.Clock()-c0)
}

// onSwap runs at the home: append to the queue. An empty queue grants
// directly; otherwise the predecessor is told its successor, tagged
// with the predecessor's tenure.
func (l *mcsLock) onSwap(p *sim.Proc, seq int64, at sim.Time) {
	e := l.env
	prev, prevSeq := l.tail, l.tailSeq
	l.tail, l.tailSeq = p.ID, seq
	if e.Tracing() {
		e.EmitLock(at, -1, l.id, "MCS.TAIL", "proc=%d seq=%d prev=%d", p.ID, seq, prev)
	}
	if prev < 0 {
		l.send(mcsGrant, l.home, p.ID, at, seq, p, l.home, 0)
		return
	}
	l.send(mcsSetNext, l.home, prev, at, int64(p.ID), p, prev, prevSeq)
}

// onSetNext runs at the predecessor: pass immediately if this tenure
// already released without knowing its successor, else file the
// successor under its tenure.
func (l *mcsLock) onSetNext(prev int, prevSeq int64, succ *sim.Proc, at sim.Time) {
	n := &l.node[prev]
	for i, s := range n.mustPass {
		if s == prevSeq {
			n.mustPass = append(n.mustPass[:i], n.mustPass[i+1:]...)
			l.pass(prev, succ, at)
			return
		}
	}
	n.pending = append(n.pending, mcsPend{succ: succ, seq: prevSeq})
}

// takeSucc removes and returns the successor filed for tenure seq of
// processor pid, if its SET-NEXT already arrived.
func (l *mcsLock) takeSucc(pid int, seq int64) (*sim.Proc, bool) {
	n := &l.node[pid]
	for i, pe := range n.pending {
		if pe.seq == seq {
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			return pe.succ, true
		}
	}
	return nil, false
}

// pass sends the lock from processor from to successor succ.
func (l *mcsLock) pass(from int, succ *sim.Proc, at sim.Time) {
	e := l.env
	e.EmitLock(at, -1, l.id, "MCS.PASS", "from=%d to=%d", from, succ.ID)
	l.send(mcsPass, from, succ.ID, at, int64(succ.ID), succ, from, 0)
}

// wake runs at the new holder: count the hit if the lock arrived from
// the same SSMP, stamp the critical section, wake.
func (l *mcsLock) wake(p *sim.Proc, from int, at sim.Time) {
	e := l.env
	if e.SSMPOf(from) == e.SSMPOf(p.ID) {
		l.hits++
	}
	l.heldSince = at + e.LockOp()
	p.Wake(at + e.LockOp())
}

// Release implements Lock: hand off to the known successor, or tell the
// home this tenure is over (the home answers MUSTPASS if a successor's
// SET-NEXT is still in flight).
func (l *mcsLock) Release(p *sim.Proc) {
	e := l.env
	e.ChargeLock(p, e.LockOp())
	if l.heldSince > 0 {
		e.CountCS(p.Clock() - l.heldSince)
	}
	seq := l.node[p.ID].seq
	if succ, ok := l.takeSucc(p.ID, seq); ok {
		e.ChargeLock(p, e.SendCost())
		l.pass(p.ID, succ, p.Clock())
		return
	}
	if e.Tracing() {
		e.EmitLock(p.Clock(), p.ID, l.id, "MCS.REL", "proc=%d seq=%d", p.ID, seq)
	}
	e.ChargeLock(p, e.SendCost())
	l.send(mcsRel, p.ID, l.home, p.Clock(), seq, nil, p.ID, seq)
}

// onRel runs at the home. If the releaser's tenure is still the tail
// the queue is empty and the lock goes free; otherwise a successor
// swapped in behind it and the releaser must pass the lock on as soon
// as it learns who that is.
func (l *mcsLock) onRel(pid int, seq int64, at sim.Time) {
	e := l.env
	if l.tail == pid && l.tailSeq == seq {
		l.tail, l.tailSeq = -1, 0
		e.EmitLock(at, -1, l.id, "MCS.FREE", "proc=%d", pid)
		return
	}
	l.send(mcsMustPass, l.home, pid, at, seq, nil, pid, seq)
}

// onMustPass runs at the released predecessor: pass now if this
// tenure's successor is known, else flag the tenure so its SET-NEXT
// passes on arrival.
func (l *mcsLock) onMustPass(pid int, seq int64, at sim.Time) {
	if succ, ok := l.takeSucc(pid, seq); ok {
		l.pass(pid, succ, at)
		return
	}
	n := &l.node[pid]
	n.mustPass = append(n.mustPass, seq)
}

// Stats implements Lock.
func (l *mcsLock) Stats() (hits, total int64) {
	return l.hits, l.total
}

// Dump implements State.
func (l *mcsLock) Dump(f func(format string, args ...any)) {
	f("lock=%d algo=mcs home=%d tail=%d tailSeq=%d", l.id, l.home, l.tail, l.tailSeq)
	for i := range l.node {
		n := &l.node[i]
		if len(n.pending) > 0 || len(n.mustPass) > 0 {
			var succs []int
			for _, pe := range n.pending {
				succs = append(succs, pe.succ.ID)
			}
			f("  proc=%d seq=%d pending=%v mustPass=%v", i, n.seq, succs, n.mustPass)
		}
	}
}

// Quiescent implements State.
func (l *mcsLock) Quiescent() error {
	if l.tail >= 0 {
		return quiesceErrf("lock %d (mcs): tail=%d (held or handoff in flight)", l.id, l.tail)
	}
	for i := range l.node {
		n := &l.node[i]
		if len(n.pending) > 0 || len(n.mustPass) > 0 {
			return quiesceErrf("lock %d (mcs): proc %d has pending handoff state", l.id, i)
		}
	}
	return nil
}
