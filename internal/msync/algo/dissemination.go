package algo

import "mgs/internal/sim"

// newDissemination builds the dissemination barrier over SSMPs: after a local
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
func newDissemination(env *Env, id, home int) Barrier {
	n := env.NSSMP()
	b := &dissemBarrier{rounds: log2ceil(n)}
	b.combine = newCombine(env, id, "DSM.LOCAL", "DSM.LOCAL", -1, b)
	b.nodes = make([]dissemNode, n)
	for s := range b.nodes {
		nd := &b.nodes[s]
		nd.sent = make([]bool, b.rounds)
		nd.recv = make([]int64, b.rounds)
	}
	return b
}

// dissemNode is one SSMP's barrier state, touched only by handlers at
// that SSMP's representative.
type dissemNode struct {
	localDone bool
	round     int
	sent      []bool  // per round, reset each episode
	recv      []int64 // per round, cumulative across episodes
	episode   int64   // completed episodes
}

// dissemBarrier is the set of per-SSMP nodes.
type dissemBarrier struct {
	combine // DSM.LOCAL to the SSMP's representative
	rounds  int

	nodes []dissemNode // each node is touched only by its own SSMP's handlers
}

// combined runs at the representative: the SSMP fully arrived. The
// combine stage's message puts the round state machine in handler
// context.
func (b *dissemBarrier) combined(s int, at sim.Time) {
	b.nodes[s].localDone = true
	b.advance(s, at)
}

// deliver runs a round-a.b message at SSMP a.a's representative, the
// barrier's only kind.
func (b *dissemBarrier) deliver(_ uint8, a args, at sim.Time) {
	b.nodes[a.a].recv[a.b]++
	b.advance(a.a, at)
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
			if e.Tracing() { // an episode past 255 would box onto the heap
				e.EmitBarrier(at, -1, b.id, "DSM.DONE", "ssmp=%d episode=%d", s, n.episode+1)
			}
			b.gates[s].release(at, e.BarrierOp())
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
			to := (s + 1<<r) % len(b.nodes)
			e.Send("DSM.RND", b.id, e.RepProc(s, b.id), e.RepProc(to, b.id), at, int64(r), e.BarrierOp(), b, 0, args{a: to, b: int64(r)})
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
		n, g := &b.nodes[s], &b.gates[s]
		if !g.idle() || n.localDone || n.round != 0 {
			f("  ssmp=%d count=%d waiting=%v localDone=%v round=%d episode=%d", s, g.count, procIDs(g.waiting), n.localDone, n.round, n.episode)
		}
	}
}

// Quiescent implements State.
func (b *dissemBarrier) Quiescent() error {
	for s := range b.nodes {
		n := &b.nodes[s]
		if !b.gates[s].idle() || n.localDone || n.round != 0 {
			return quiesceErrf("barrier %d (dissemination): ssmp %d mid-episode", b.id, s)
		}
		if n.episode != b.nodes[0].episode {
			return quiesceErrf("barrier %d (dissemination): ssmp %d at episode %d, ssmp 0 at %d", b.id, s, n.episode, b.nodes[0].episode)
		}
	}
	return nil
}
