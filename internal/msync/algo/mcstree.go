package algo

import (
	"mgs/internal/msg"
	"mgs/internal/sim"
)

// MCSTree is the MCS tree barrier over SSMPs: arrivals flow up a 4-ary
// tree (each node reports to parent (s-1)/4 once its own SSMP and all
// arrival children are in), the root detects completion, and wakeups
// flow down a separate binary tree (children 2s+1, 2s+2) — the
// original's fan-in-4 / fan-out-2 shape, chosen so no handler ever
// sends more than a few messages.
//
// Reordering robustness: a node resets its arrival count at the moment
// it reports upward, and an arrival child cannot report the next
// episode before the global release of this one (which is causally
// after the parent's report), so each inter-reset window sees exactly
// one ARRIVE per child and plain counters suffice.
type MCSTree struct{}

// Name implements BarrierAlgo.
func (MCSTree) Name() string { return "mcstree" }

// NewBarrier implements BarrierAlgo.
func (MCSTree) NewBarrier(env *Env, id, home int) Barrier {
	return &mcsTreeBarrier{env: env, id: id, nodes: make([]mcsTreeNode, env.NSSMP())}
}

// mcsTreeNode is one SSMP's tree node.
type mcsTreeNode struct {
	g         gate
	localDone bool
	kidsIn    int // arrival children reported this episode
}

// mcsTreeBarrier is the tree; SSMP 0 is the root.
type mcsTreeBarrier struct {
	env *Env
	id  int

	nodes []mcsTreeNode // each node is touched only by its own SSMP's handlers

	episodes int64 // root-side handlers only
}

// nkids counts SSMP s's arrival-tree children.
func (b *mcsTreeBarrier) nkids(s int) int {
	k := 0
	for j := 1; j <= 4; j++ {
		if 4*s+j < len(b.nodes) {
			k++
		}
	}
	return k
}

// Arrive implements Barrier.
func (b *mcsTreeBarrier) Arrive(p *sim.Proc) {
	e := b.env
	e.ChargeBarrier(p, e.BarrierOp())
	s := e.SSMPOf(p.ID)
	if last, when := b.nodes[s].g.arrive(p, e.ClusterSize()); last {
		e.EmitBarrier(when, p.ID, b.id, "MCT.LOCAL", "ssmp=%d", s)
		e.ChargeBarrier(p, e.SendCost())
		e.Send("MCT.LOCAL", b.id, p.ID, e.RepProc(s, b.id), when, int64(s), e.BarrierOp(),
			msg.Func(func(at sim.Time) { b.onLocal(s, at) }))
	}
	c0 := p.Clock()
	p.Park() // woken by the wakeup wave
	e.BarrierWaited(p, p.Clock()-c0)
}

// onLocal runs at SSMP s's representative: its own processors are in.
func (b *mcsTreeBarrier) onLocal(s int, at sim.Time) {
	b.nodes[s].localDone = true
	b.check(s, at)
}

// onChild runs at SSMP s's representative: an arrival child reported.
func (b *mcsTreeBarrier) onChild(s int, at sim.Time) {
	b.nodes[s].kidsIn++
	b.check(s, at)
}

// check reports upward (or starts the wakeup wave at the root) once
// SSMP s and its whole arrival subtree are in.
func (b *mcsTreeBarrier) check(s int, at sim.Time) {
	e := b.env
	n := &b.nodes[s]
	if !n.localDone || n.kidsIn < b.nkids(s) {
		return
	}
	n.localDone = false
	n.kidsIn = 0
	if s == 0 {
		b.episodes++
		e.EmitBarrier(at, -1, b.id, "MCT.ROOT", "episode=%d", b.episodes)
		b.wake(0, at)
		return
	}
	parent := (s - 1) / 4
	e.Send("MCT.ARRIVE", b.id, e.RepProc(s, b.id), e.RepProc(parent, b.id), at, int64(s), e.BarrierOp(),
		msg.Func(func(at2 sim.Time) { b.onChild(parent, at2) }))
}

// wake runs at SSMP s's representative: release the local gate and
// forward down the binary wakeup tree.
func (b *mcsTreeBarrier) wake(s int, at sim.Time) {
	e := b.env
	b.nodes[s].g.release(at, e.BarrierOp())
	for _, c := range []int{2*s + 1, 2*s + 2} {
		if c >= len(b.nodes) {
			continue
		}
		c := c
		e.Send("MCT.WAKE", b.id, e.RepProc(s, b.id), e.RepProc(c, b.id), at, int64(c), e.BarrierOp(),
			msg.Func(func(at2 sim.Time) { b.wake(c, at2) }))
	}
}

// Episodes implements Barrier.
func (b *mcsTreeBarrier) Episodes() int64 { return b.episodes }

// Dump implements State.
func (b *mcsTreeBarrier) Dump(f func(format string, args ...any)) {
	f("barrier=%d algo=mcstree episodes=%d", b.id, b.episodes)
	for s := range b.nodes {
		n := &b.nodes[s]
		if !n.g.idle() || n.localDone || n.kidsIn > 0 {
			var ws []int
			for _, p := range n.g.waiting {
				ws = append(ws, p.ID)
			}
			f("  ssmp=%d count=%d waiting=%v localDone=%v kidsIn=%d", s, n.g.count, ws, n.localDone, n.kidsIn)
		}
	}
}

// Quiescent implements State.
func (b *mcsTreeBarrier) Quiescent() error {
	for s := range b.nodes {
		n := &b.nodes[s]
		if !n.g.idle() || n.localDone || n.kidsIn > 0 {
			return quiesceErrf("barrier %d (mcstree): ssmp %d mid-episode", b.id, s)
		}
	}
	return nil
}
