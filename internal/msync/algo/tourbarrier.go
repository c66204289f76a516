package algo

import "mgs/internal/sim"

// newTournamentBarrier builds the tournament barrier over SSMPs: in round r,
// SSMP s with bit r as its lowest set bit "loses" to winner s - 2^r
// (after first collecting arrivals as the winner of rounds 0..r-1 from
// partners s + 2^k); SSMP 0 is the champion. Wakeups retrace the
// bracket in reverse: each winner wakes the losers that reported to it,
// highest round first. Statically scheduled like dissemination but with
// half the messages (one per SSMP per episode each way) at the cost of
// a release wave.
//
// Reordering robustness: receive counters are cumulative and compared
// against the node's started-episode count, so an early arrival from a
// bracket partner that already entered the next episode pre-pays its
// round instead of corrupting this one. Skew beyond one episode cannot
// occur: a loser restarts only after its wakeup, which is causally
// after the champion completed the previous episode.
func newTournamentBarrier(env *Env, id, home int) Barrier {
	n := env.NSSMP()
	b := &tourBarrier{rounds: log2ceil(n)}
	b.combine = newCombine(env, id, "TNB.LOCAL", "TNB.LOCAL", -1, b)
	b.nodes = make([]tourBarNode, n)
	for s := range b.nodes {
		b.nodes[s].recv = make([]int64, b.rounds)
	}
	return b
}

// tourBarNode is one SSMP's bracket state.
type tourBarNode struct {
	localDone bool
	round     int
	started   int64   // episodes this node has begun (local combine done)
	recv      []int64 // per round, cumulative arrivals from losers
}

// tourBarrier is the bracket; SSMP 0 is the champion.
type tourBarrier struct {
	combine // TNB.LOCAL to the SSMP's representative
	rounds  int

	nodes []tourBarNode // each node is touched only by its own SSMP's handlers

	episodes int64 // champion-side handlers only
}

// The barrier's messages, both to SSMP a's representative.
const (
	tnbArrive = iota // TNB.ARRIVE: a's round-b loser reported
	tnbWake          // TNB.WAKE: a is released
)

// deliver implements receiver.
func (b *tourBarrier) deliver(k uint8, a args, at sim.Time) {
	if k == tnbArrive {
		b.onArrive(a.a, int(a.b), at)
	} else {
		b.wake(a.a, at)
	}
}

// loserRound returns the round in which SSMP s loses: the index of its
// lowest set bit (the champion never loses and plays all rounds).
func (b *tourBarrier) loserRound(s int) int {
	if s == 0 {
		return b.rounds
	}
	r := 0
	for s&1 == 0 {
		s >>= 1
		r++
	}
	return r
}

// combined runs at the representative: the SSMP fully arrived.
func (b *tourBarrier) combined(s int, at sim.Time) {
	n := &b.nodes[s]
	n.started++
	n.localDone = true
	b.advance(s, at)
}

// onArrive runs at a winner: a round-r loser reported.
func (b *tourBarrier) onArrive(s, r int, at sim.Time) {
	b.nodes[s].recv[r]++
	b.advance(s, at)
}

// advance plays SSMP s's bracket as far as arrivals allow: win each
// round up to the losing round (a missing partner is a bye), then
// report to the winner — or, for the champion, complete the episode.
func (b *tourBarrier) advance(s int, at sim.Time) {
	e := b.env
	n := &b.nodes[s]
	if !n.localDone {
		return
	}
	lr := b.loserRound(s)
	for {
		r := n.round
		if r == lr {
			n.localDone = false
			n.round = 0
			if s == 0 {
				b.episodes++
				if e.Tracing() {
					e.EmitBarrier(at, -1, b.id, "TNB.CHAMPION", "episode=%d", b.episodes)
				}
				b.wake(s, at)
				return
			}
			w := s - 1<<lr
			e.Send("TNB.ARRIVE", b.id, e.RepProc(s, b.id), e.RepProc(w, b.id), at, int64(lr), e.BarrierOp(), b, tnbArrive, args{a: w, b: int64(lr)})
			return
		}
		if partner := s + 1<<r; partner < len(b.nodes) && n.recv[r] < n.started {
			return
		}
		n.round++
	}
}

// wake runs at a winner: release the local gate, then wake this
// bracket's losers, highest round first.
func (b *tourBarrier) wake(s int, at sim.Time) {
	e := b.env
	b.gates[s].release(at, e.BarrierOp())
	for r := b.loserRound(s) - 1; r >= 0; r-- {
		c := s + 1<<r
		if c >= len(b.nodes) {
			continue
		}
		e.Send("TNB.WAKE", b.id, e.RepProc(s, b.id), e.RepProc(c, b.id), at, int64(c), e.BarrierOp(), b, tnbWake, args{a: c})
	}
}

// Episodes implements Barrier.
func (b *tourBarrier) Episodes() int64 { return b.episodes }

// Dump implements State.
func (b *tourBarrier) Dump(f func(format string, args ...any)) {
	f("barrier=%d algo=tournament rounds=%d episodes=%d", b.id, b.rounds, b.episodes)
	for s := range b.nodes {
		n, g := &b.nodes[s], &b.gates[s]
		if !g.idle() || n.localDone || n.round != 0 {
			f("  ssmp=%d count=%d waiting=%v localDone=%v round=%d started=%d", s, g.count, procIDs(g.waiting), n.localDone, n.round, n.started)
		}
	}
}

// Quiescent implements State.
func (b *tourBarrier) Quiescent() error {
	for s := range b.nodes {
		n := &b.nodes[s]
		if !b.gates[s].idle() || n.localDone || n.round != 0 {
			return quiesceErrf("barrier %d (tournament): ssmp %d mid-episode", b.id, s)
		}
		if n.started != b.nodes[0].started {
			return quiesceErrf("barrier %d (tournament): ssmp %d started %d episodes, ssmp 0 %d", b.id, s, n.started, b.nodes[0].started)
		}
	}
	return nil
}
