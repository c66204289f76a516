package algo

import "mgs/internal/sim"

// newTree builds the paper's two-level tree barrier (§3.2), the
// default: processors first combine inside their SSMP through hardware
// shared memory, then one COMBINE message per SSMP reaches the
// barrier's home, which answers with one RELEASE message per SSMP — the
// minimum two inter-SSMP messages per SSMP.
func newTree(env *Env, id, home int) Barrier {
	b := &treeBarrier{home: home % env.NProcs()}
	b.combine = newCombine(env, id, "BAR.COMB", "COMBINE", b.home, b)
	return b
}

type treeBarrier struct {
	combine     // BAR.COMB to the home
	home    int // global processor hosting the top of the tree
	arrived int // home-side handlers only; SSMPs combined this episode

	episodes int64 // home-side handlers only
}

// deliver runs a BAR.REL at SSMP a.a, the barrier's only kind.
func (b *treeBarrier) deliver(_ uint8, a args, at sim.Time) { b.onRelease(a.a, at) }

// combined runs at the barrier home: one SSMP has fully arrived.
func (b *treeBarrier) combined(_ int, at sim.Time) {
	e := b.env
	b.arrived++
	if e.Tracing() { // counts past 255 would box onto the heap
		e.EmitBarrier(at, -1, b.id, "COMBINE.HOME", "arrived=%d/%d", b.arrived, e.NSSMP())
	}
	if b.arrived < e.NSSMP() {
		return
	}
	b.arrived = 0
	b.episodes++
	for s := range e.NSSMP() {
		e.Send("BAR.REL", b.id, b.home, e.RepProc(s, b.id), at, int64(s), e.BarrierOp(), b, 0, args{a: s})
	}
}

// onRelease runs in each SSMP: wake every waiting processor.
func (b *treeBarrier) onRelease(s int, at sim.Time) {
	g := &b.gates[s]
	if b.env.Tracing() { // an SSMP past 255 would box onto the heap
		b.env.EmitBarrier(at, -1, b.id, "RELEASE", "ssmp=%d waiters=%d", s, len(g.waiting))
	}
	g.release(at, b.env.BarrierOp())
}

// Episodes implements Barrier.
func (b *treeBarrier) Episodes() int64 { return b.episodes }

// Dump implements State.
func (b *treeBarrier) Dump(f func(format string, args ...any)) {
	f("barrier=%d arrived=%d", b.id, b.arrived)
	for s := range b.gates {
		g := &b.gates[s]
		if !g.idle() {
			f("  ssmp=%d count=%d waiting=%v", s, g.count, procIDs(g.waiting))
		}
	}
}

// Quiescent implements State: no partial episode anywhere.
func (b *treeBarrier) Quiescent() error {
	if b.arrived != 0 {
		return quiesceErrf("barrier %d (tree): %d SSMP combines unanswered", b.id, b.arrived)
	}
	for s := range b.gates {
		if g := &b.gates[s]; !g.idle() {
			return quiesceErrf("barrier %d (tree): ssmp %d mid-episode (count=%d waiters=%d)", b.id, s, g.count, len(g.waiting))
		}
	}
	return nil
}
