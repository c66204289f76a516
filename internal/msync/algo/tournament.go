package algo

import (
	"mgs/internal/msg"
	"mgs/internal/sim"
)

// Tournament is a tournament (arbiter-tree) lock: a static binary tree
// over the machine's SSMPs, each node hosted by the leftmost SSMP of
// its subtree. A contender enters at its SSMP's leaf and climbs,
// acquiring each node in turn (lock-coupling); owning the root is
// owning the lock. Each node keeps a FIFO queue, so waiting is
// distributed across the tree instead of concentrating at one home, at
// the price of a logarithmic climb. An acquire is a hit only when its
// entire climb — and the final grant — stayed inside one SSMP, which
// the protocol tracks by accumulating a crossed flag along the path.
//
// Reordering robustness: each node's state is touched only by handlers
// at its host, so per-node transitions serialize there; a node's
// release can never overtake the acquire that won it (the releaser's
// ownership is in the release's causal past), and releases of distinct
// nodes commute.
type Tournament struct{}

// Name implements LockAlgo.
func (Tournament) Name() string { return "tournament" }

// NewLock implements LockAlgo.
func (Tournament) NewLock(env *Env, id, home int) Lock {
	l := &tourLock{env: env, id: id}
	// Build the arbiter tree bottom-up: level 0 is one leaf per SSMP,
	// each higher level halves (rounding up) until a single root.
	n := env.NSSMP()
	l.leaf = make([]int, n)
	level := make([]int, n)
	for s := 0; s < n; s++ {
		l.nodes = append(l.nodes, tourNode{parent: -1, host: s})
		l.leaf[s] = s
		level[s] = s
	}
	for len(level) > 1 {
		var up []int
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				// Odd node out: promote it unchanged.
				up = append(up, level[i])
				continue
			}
			ni := len(l.nodes)
			l.nodes = append(l.nodes, tourNode{parent: -1, host: l.nodes[level[i]].host})
			l.nodes[level[i]].parent = ni
			l.nodes[level[i+1]].parent = ni
			up = append(up, ni)
		}
		level = up
	}
	return l
}

// tourWaiter is one contender in flight: its processor and whether its
// path so far crossed an SSMP boundary.
type tourWaiter struct {
	p       *sim.Proc
	crossed bool
}

// tourNode is one arbiter: hosted at an SSMP, held by at most one
// contender, FIFO queue of contenders blocked here.
type tourNode struct {
	parent int // -1 at the root
	host   int // SSMP hosting this node's state
	held   bool
	queue  []tourWaiter
}

// tourLock is the tree. Node state is touched only by handlers at the
// node's host.
type tourLock struct {
	env *Env
	id  int

	nodes []tourNode // each node is touched only by its host SSMP's handlers
	leaf  []int      // immutable after construction

	heldSince sim.Time // single holder at a time

	hits  int64
	total int64
}

// Acquire implements Lock: enter the tree at this SSMP's leaf and park;
// the climb proceeds entirely in handlers.
func (l *tourLock) Acquire(p *sim.Proc) {
	e := l.env
	l.total++
	e.ChargeLock(p, e.LockOp())
	s := e.SSMPOf(p.ID)
	ni := l.leaf[s]
	to := e.RepProc(l.nodes[ni].host, l.id)
	w := tourWaiter{p: p, crossed: e.SSMPOf(p.ID) != e.SSMPOf(to)}
	e.EmitLock(p.Clock(), p.ID, l.id, "TOUR.ENTER", "proc=%d leaf=%d", p.ID, ni)
	e.ChargeLock(p, e.SendCost())
	e.Send("TOUR.ACQ", l.id, p.ID, to, p.Clock(), int64(ni), e.TokenWork(),
		msg.Func(func(at sim.Time) { l.arrive(w, ni, at) }))
	c0 := p.Clock()
	p.Park() // woken holding the lock
	e.LockWaited(p, p.Clock()-c0)
}

// arrive runs at a node's host: take the node if free, else queue.
func (l *tourLock) arrive(w tourWaiter, ni int, at sim.Time) {
	n := &l.nodes[ni]
	if n.held {
		n.queue = append(n.queue, w)
		return
	}
	n.held = true
	l.ascend(w, ni, at)
}

// ascend runs at a node's host after w won node ni: climb to the
// parent, or grant the lock at the root.
func (l *tourLock) ascend(w tourWaiter, ni int, at sim.Time) {
	e := l.env
	n := &l.nodes[ni]
	if n.parent < 0 {
		from := e.RepProc(n.host, l.id)
		crossed := w.crossed || e.SSMPOf(from) != e.SSMPOf(w.p.ID)
		e.EmitLock(at, -1, l.id, "TOUR.GRANT", "proc=%d crossed=%v", w.p.ID, crossed)
		e.Send("TOUR.GRANTMSG", l.id, from, w.p.ID, at, int64(w.p.ID), e.TokenWork(),
			msg.Func(func(at2 sim.Time) { l.grant(w.p, crossed, at2) }))
		return
	}
	from := e.RepProc(n.host, l.id)
	to := e.RepProc(l.nodes[n.parent].host, l.id)
	w2 := tourWaiter{p: w.p, crossed: w.crossed || e.SSMPOf(from) != e.SSMPOf(to)}
	pi := n.parent
	e.Send("TOUR.ACQ", l.id, from, to, at, int64(pi), e.TokenWork(),
		msg.Func(func(at2 sim.Time) { l.arrive(w2, pi, at2) }))
}

// grant runs at the new holder: a hit is a climb that never left the
// holder's SSMP.
func (l *tourLock) grant(p *sim.Proc, crossed bool, at sim.Time) {
	e := l.env
	if !crossed {
		l.hits++
	}
	l.heldSince = at + e.LockOp()
	p.Wake(at + e.LockOp())
}

// Release implements Lock: release every node on the holder's path.
// Each node independently hands itself to its first queued contender,
// who resumes climbing from there.
func (l *tourLock) Release(p *sim.Proc) {
	e := l.env
	e.ChargeLock(p, e.LockOp())
	if l.heldSince > 0 {
		e.CountCS(p.Clock() - l.heldSince)
	}
	e.EmitLock(p.Clock(), p.ID, l.id, "TOUR.REL", "proc=%d", p.ID)
	for ni := l.leaf[e.SSMPOf(p.ID)]; ni >= 0; ni = l.nodes[ni].parent {
		ni := ni
		to := e.RepProc(l.nodes[ni].host, l.id)
		e.ChargeLock(p, e.SendCost())
		e.Send("TOUR.REL", l.id, p.ID, to, p.Clock(), int64(ni), e.TokenWork(),
			msg.Func(func(at sim.Time) { l.release(ni, at) }))
	}
}

// release runs at a node's host: hand the node to the next queued
// contender or free it.
func (l *tourLock) release(ni int, at sim.Time) {
	n := &l.nodes[ni]
	if len(n.queue) == 0 {
		n.held = false
		return
	}
	w := n.queue[0]
	n.queue = n.queue[1:]
	l.ascend(w, ni, at)
}

// Stats implements Lock.
func (l *tourLock) Stats() (hits, total int64) {
	return l.hits, l.total
}

// Dump implements State.
func (l *tourLock) Dump(f func(format string, args ...any)) {
	f("lock=%d algo=tournament nodes=%d", l.id, len(l.nodes))
	for ni := range l.nodes {
		n := &l.nodes[ni]
		if n.held || len(n.queue) > 0 {
			var q []int
			for _, w := range n.queue {
				q = append(q, w.p.ID)
			}
			f("  node=%d host=%d parent=%d held=%v queue=%v", ni, n.host, n.parent, n.held, q)
		}
	}
}

// Quiescent implements State.
func (l *tourLock) Quiescent() error {
	for ni := range l.nodes {
		n := &l.nodes[ni]
		if n.held || len(n.queue) > 0 {
			return quiesceErrf("lock %d (tournament): node %d held=%v queue=%d", l.id, ni, n.held, len(n.queue))
		}
	}
	return nil
}
