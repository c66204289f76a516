package algo

import (
	"mgs/internal/msg"
	"mgs/internal/sim"
)

// Tree is the paper's two-level tree barrier (§3.2) and the default:
// processors first combine inside their SSMP through hardware shared
// memory, then one COMBINE message per SSMP reaches the barrier's home,
// which answers with one RELEASE message per SSMP — the minimum two
// inter-SSMP messages per SSMP.
type Tree struct{}

// Name implements BarrierAlgo.
func (Tree) Name() string { return DefaultBarrier }

// NewBarrier implements BarrierAlgo.
func (Tree) NewBarrier(env *Env, id, home int) Barrier {
	return &treeBarrier{env: env, id: id, home: home % env.NProcs(), local: make([]gate, env.NSSMP())}
}

type treeBarrier struct {
	env  *Env
	id   int
	home int // global processor hosting the top of the tree

	local   []gate // each combining node is touched only by its own SSMP
	arrived int    // home-side handlers only; SSMPs combined this episode

	episodes int64 // home-side handlers only
}

// Arrive implements Barrier.
func (b *treeBarrier) Arrive(p *sim.Proc) {
	e := b.env
	e.ChargeBarrier(p, e.BarrierOp())
	s := e.SSMPOf(p.ID)
	if last, when := b.local[s].arrive(p, e.ClusterSize()); last {
		e.EmitBarrier(when, p.ID, b.id, "COMBINE", "ssmp=%d proc=%d", s, p.ID)
		e.ChargeBarrier(p, e.SendCost())
		e.Send("BAR.COMB", b.id, p.ID, b.home, when, int64(s), e.BarrierOp(),
			msg.Func(func(at sim.Time) { b.onCombine(at) }))
	}
	c0 := p.Clock()
	p.Park() // woken by the local release
	e.BarrierWaited(p, p.Clock()-c0)
}

// onCombine runs at the barrier home: one SSMP has fully arrived.
func (b *treeBarrier) onCombine(at sim.Time) {
	e := b.env
	b.arrived++
	e.EmitBarrier(at, -1, b.id, "COMBINE.HOME", "arrived=%d/%d", b.arrived, e.NSSMP())
	if b.arrived < e.NSSMP() {
		return
	}
	b.arrived = 0
	b.episodes++
	for s := 0; s < e.NSSMP(); s++ {
		s := s
		e.Send("BAR.REL", b.id, b.home, e.RepProc(s, b.id), at, int64(s), e.BarrierOp(),
			msg.Func(func(at2 sim.Time) { b.onRelease(s, at2) }))
	}
}

// onRelease runs in each SSMP: wake every waiting processor.
func (b *treeBarrier) onRelease(s int, at sim.Time) {
	g := &b.local[s]
	b.env.EmitBarrier(at, -1, b.id, "RELEASE", "ssmp=%d waiters=%d", s, len(g.waiting))
	g.release(at, b.env.BarrierOp())
}

// Episodes implements Barrier.
func (b *treeBarrier) Episodes() int64 { return b.episodes }

// Dump implements Dumper.
func (b *treeBarrier) Dump(f func(format string, args ...any)) {
	f("barrier=%d arrived=%d", b.id, b.arrived)
	for s := range b.local {
		g := &b.local[s]
		if !g.idle() {
			var ws []int
			for _, p := range g.waiting {
				ws = append(ws, p.ID)
			}
			f("  ssmp=%d count=%d waiting=%v", s, g.count, ws)
		}
	}
}

// Quiescent implements Quiescer: no partial episode anywhere.
func (b *treeBarrier) Quiescent() error {
	if b.arrived != 0 {
		return quiesceErrf("barrier %d (tree): %d SSMP combines unanswered", b.id, b.arrived)
	}
	for s := range b.local {
		if g := &b.local[s]; !g.idle() {
			return quiesceErrf("barrier %d (tree): ssmp %d mid-episode (count=%d waiters=%d)", b.id, s, g.count, len(g.waiting))
		}
	}
	return nil
}
