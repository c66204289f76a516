package algo

import "mgs/internal/sim"

// newMCSTree builds the MCS tree barrier over SSMPs: arrivals flow up a 4-ary
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
func newMCSTree(env *Env, id, home int) Barrier {
	b := &mcsTreeBarrier{nodes: make([]mcsTreeNode, env.NSSMP())}
	b.combine = newCombine(env, id, "MCT.LOCAL", "MCT.LOCAL", -1, b)
	return b
}

// mcsTreeNode is one SSMP's tree node.
type mcsTreeNode struct {
	localDone bool
	kidsIn    int // arrival children reported this episode
}

// mcsTreeBarrier is the tree; SSMP 0 is the root.
type mcsTreeBarrier struct {
	combine // MCT.LOCAL to the SSMP's representative

	nodes []mcsTreeNode // each node is touched only by its own SSMP's handlers

	episodes int64 // root-side handlers only
}

// The barrier's messages, both to SSMP a's representative.
const (
	mctArrive = iota // MCT.ARRIVE: an arrival child of a reported
	mctWake          // MCT.WAKE: a is released
)

// deliver implements receiver.
func (b *mcsTreeBarrier) deliver(k uint8, a args, at sim.Time) {
	if k == mctArrive {
		b.onChild(a.a, at)
	} else {
		b.wake(a.a, at)
	}
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

// combined runs at SSMP s's representative: its own processors are in.
func (b *mcsTreeBarrier) combined(s int, at sim.Time) {
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
		if e.Tracing() {
			e.EmitBarrier(at, -1, b.id, "MCT.ROOT", "episode=%d", b.episodes)
		}
		b.wake(0, at)
		return
	}
	parent := (s - 1) / 4
	e.Send("MCT.ARRIVE", b.id, e.RepProc(s, b.id), e.RepProc(parent, b.id), at, int64(s), e.BarrierOp(), b, mctArrive, args{a: parent})
}

// wake runs at SSMP s's representative: release the local gate and
// forward down the binary wakeup tree.
func (b *mcsTreeBarrier) wake(s int, at sim.Time) {
	e := b.env
	b.gates[s].release(at, e.BarrierOp())
	for c := 2*s + 1; c <= 2*s+2 && c < len(b.nodes); c++ {
		e.Send("MCT.WAKE", b.id, e.RepProc(s, b.id), e.RepProc(c, b.id), at, int64(c), e.BarrierOp(), b, mctWake, args{a: c})
	}
}

// Episodes implements Barrier.
func (b *mcsTreeBarrier) Episodes() int64 { return b.episodes }

// Dump implements State.
func (b *mcsTreeBarrier) Dump(f func(format string, args ...any)) {
	f("barrier=%d algo=mcstree episodes=%d", b.id, b.episodes)
	for s := range b.nodes {
		n, g := &b.nodes[s], &b.gates[s]
		if !g.idle() || n.localDone || n.kidsIn > 0 {
			f("  ssmp=%d count=%d waiting=%v localDone=%v kidsIn=%d", s, g.count, procIDs(g.waiting), n.localDone, n.kidsIn)
		}
	}
}

// Quiescent implements State.
func (b *mcsTreeBarrier) Quiescent() error {
	for s := range b.nodes {
		n := &b.nodes[s]
		if !b.gates[s].idle() || n.localDone || n.kidsIn > 0 {
			return quiesceErrf("barrier %d (mcstree): ssmp %d mid-episode", b.id, s)
		}
	}
	return nil
}
