package algo

import (
	"mgs/internal/msg"
	"mgs/internal/sim"
)

// Dissemination is the dissemination barrier over SSMPs: after a local
// combine, each SSMP runs ceil(log2(N)) rounds, sending in round r to
// SSMP (s + 2^r) mod N and waiting for the matching message from
// (s - 2^r) mod N. No root and no release wave — every SSMP knows the
// barrier is complete the moment its own last round closes, so the
// critical path is log N message latencies with no home hotspot.
//
// Reordering robustness: a faster SSMP may start episode e+1 and its
// round messages may overtake a slower SSMP's episode-e traffic, but
// skew beyond one episode is impossible (closing round log N - 1 of
// episode e+1 transitively requires every SSMP to have finished e), so
// cumulative never-reset per-round receive counters absorb any
// interleaving: round r of episode e needs recv[r] >= e+1, and early
// e+1 messages simply pre-pay the counter.
type Dissemination struct{}

// Name implements BarrierAlgo.
func (Dissemination) Name() string { return "dissemination" }

// NewBarrier implements BarrierAlgo.
func (Dissemination) NewBarrier(env *Env, id, home int) Barrier {
	n := env.NSSMP()
	b := &dissemBarrier{env: env, id: id, rounds: log2ceil(n)}
	b.nodes = make([]dissemNode, n)
	for s := range b.nodes {
		b.nodes[s].sent = make([]bool, b.rounds)
		b.nodes[s].recv = make([]int64, b.rounds)
	}
	return b
}

// dissemNode is one SSMP's barrier state, touched only by handlers at
// that SSMP's representative (and the local gate by its own
// processors).
type dissemNode struct {
	g         gate
	localDone bool
	round     int
	sent      []bool  // per round, reset each episode
	recv      []int64 // per round, cumulative across episodes
	episode   int64   // completed episodes
}

// dissemBarrier is the set of per-SSMP nodes.
type dissemBarrier struct {
	env    *Env
	id     int
	rounds int

	nodes []dissemNode // each node is touched only by its own SSMP's handlers
}

// Arrive implements Barrier: combine locally; the SSMP's last arriver
// publishes completion to the representative with a message, so the
// round state machine always runs in handler context.
func (b *dissemBarrier) Arrive(p *sim.Proc) {
	e := b.env
	e.ChargeBarrier(p, e.BarrierOp())
	s := e.SSMPOf(p.ID)
	if last, when := b.nodes[s].g.arrive(p, e.ClusterSize()); last {
		e.EmitBarrier(when, p.ID, b.id, "DSM.LOCAL", "ssmp=%d", s)
		e.ChargeBarrier(p, e.SendCost())
		e.Send("DSM.LOCAL", b.id, p.ID, e.RepProc(s, b.id), when, int64(s), e.BarrierOp(),
			msg.Func(func(at sim.Time) { b.onLocal(s, at) }))
	}
	c0 := p.Clock()
	p.Park() // woken when this SSMP's last round closes
	e.BarrierWaited(p, p.Clock()-c0)
}

// onLocal runs at the representative: the SSMP fully arrived.
func (b *dissemBarrier) onLocal(s int, at sim.Time) {
	b.nodes[s].localDone = true
	b.advance(s, at)
}

// onRound runs at the representative: a round-r message arrived.
func (b *dissemBarrier) onRound(s, r int, at sim.Time) {
	b.nodes[s].recv[r]++
	b.advance(s, at)
}

// advance drives SSMP s's round machine as far as received messages
// allow; it sends each round's message exactly once per episode and
// releases the local gate when the last round closes.
func (b *dissemBarrier) advance(s int, at sim.Time) {
	e := b.env
	n := &b.nodes[s]
	if !n.localDone {
		return
	}
	for {
		if n.round == b.rounds {
			e.EmitBarrier(at, -1, b.id, "DSM.DONE", "ssmp=%d episode=%d", s, n.episode+1)
			n.g.release(at, e.BarrierOp())
			n.episode++
			n.localDone = false
			n.round = 0
			for r := range n.sent {
				n.sent[r] = false
			}
			return
		}
		r := n.round
		if !n.sent[r] {
			n.sent[r] = true
			to := (s + (1 << r)) % e.NSSMP()
			toSSMP := to
			e.Send("DSM.RND", b.id, e.RepProc(s, b.id), e.RepProc(to, b.id), at, int64(r), e.BarrierOp(),
				msg.Func(func(at2 sim.Time) { b.onRound(toSSMP, r, at2) }))
		}
		if n.recv[r] < n.episode+1 {
			return
		}
		n.round++
	}
}

// Episodes implements Barrier.
func (b *dissemBarrier) Episodes() int64 { return b.nodes[0].episode }

// Dump implements State.
func (b *dissemBarrier) Dump(f func(format string, args ...any)) {
	f("barrier=%d algo=dissemination rounds=%d", b.id, b.rounds)
	for s := range b.nodes {
		n := &b.nodes[s]
		if !n.g.idle() || n.localDone || n.round != 0 {
			var ws []int
			for _, p := range n.g.waiting {
				ws = append(ws, p.ID)
			}
			f("  ssmp=%d count=%d waiting=%v localDone=%v round=%d episode=%d", s, n.g.count, ws, n.localDone, n.round, n.episode)
		}
	}
}

// Quiescent implements State.
func (b *dissemBarrier) Quiescent() error {
	for s := range b.nodes {
		n := &b.nodes[s]
		if !n.g.idle() || n.localDone || n.round != 0 {
			return quiesceErrf("barrier %d (dissemination): ssmp %d mid-episode", b.id, s)
		}
		if n.episode != b.nodes[0].episode {
			return quiesceErrf("barrier %d (dissemination): ssmp %d at episode %d, ssmp 0 at %d", b.id, s, n.episode, b.nodes[0].episode)
		}
	}
	return nil
}
