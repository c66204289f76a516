// Package algo is the MGS synchronization-algorithm family: every lock
// and barrier the machine can run, expressed purely as message sequences
// over the MGS interconnect and selected by name through
// harness.WithLockAlgo / WithBarrierAlgo (or the -lock / -barrier flags
// of every tool). The defaults are the paper's §3.2 library — the
// token-based distributed lock ("token") and the two-level tree barrier
// ("tree") — beside ticket, MCS and tournament locks and sense-
// reversing, dissemination, MCS-tree and tournament barriers. An
// algorithm is a constructor listed by name in one of two sorted
// tables below; LockByName and BarrierByName resolve a name.
//
// An algorithm never touches the memory system directly. msync.System
// wraps every lock/barrier in a shim that runs the release-consistency
// protocol actions (ReleaseAll before a release or barrier arrival,
// AcquireSync after a grant or barrier exit) and the profiler
// attribution, so an implementation here is only the ordering protocol:
// who sends what to whom, who parks, who wakes. Every message is a real
// msg.Network send — it pays interconnect latency on every topology,
// rides the reliable transport under fault injection, and is a labeled
// delivery the model checker can reorder. It leaves through Env.Send in
// a record from the Env's mem.Pool, naming the instance that receives
// it, a kind and the kind's arguments; the instance's deliver dispatches
// on the kind, so no message allocates.
//
// Cycle-charging rules, shared by every algorithm, and where each is
// applied:
//
//   - the operation's own Env.LockOp/BarrierOp: the shim, once per
//     acquire, release and arrival (it also counts the acquires);
//   - Env.SendCost for each message a processor sends: the sender, since
//     a barrier sends at its gate's departure time, not at the clock;
//   - handler-context sends are free to the processor (the handler's
//     work cycles are charged to the MGS category at the receiver);
//   - parked time, charged to the category on wake and observed into the
//     lock.waitcycles / barrier.waitcycles histograms: Env.ParkLock /
//     Env.ParkBarrier, the only way an algorithm parks;
//   - hits and critical-section occupancy (Env.CountCS at release): the
//     holding struct every lock embeds. The lock still stamps the start
//     itself where it grants without a wake (the token lock's local hit
//     and hand-off);
//   - the SSMP combine that opens tree, dissemination, MCS-tree and
//     tournament barriers: the combine stage they embed (gate.go).
package algo

import (
	"cmp"

	"mgs/internal/sim"
)

// State is what every lock and barrier shows of itself beside its
// protocol. Dump renders its state deterministically (deadlock
// diagnosis and the model checker's state hashing); Quiescent checks it
// idle — nothing held, no waiter parked, no protocol message
// outstanding — and the model checker runs it at end of run.
type State interface {
	Dump(f func(format string, args ...any))
	Quiescent() error
}

// Lock is one lock instance: the contract Ctx.Acquire/Release dispatch
// through. Acquire returns holding the lock; Release never blocks.
type Lock interface {
	State
	Acquire(p *sim.Proc)
	Release(p *sim.Proc)
	// Hits counts the acquires granted without inter-SSMP communication
	// (Figure 11's numerator; the shim counts the acquires).
	Hits() int64
}

// holding is the accounting every lock embeds: Figure 11's hit count
// and the start of the current critical section, which feeds
// lock.heldcycles at release.
type holding struct {
	hits      int64
	heldSince sim.Time // single holder at a time
}

// granted hands the lock to waiter p at time at: count the hit, stamp
// the critical section and wake p, both after the LockOp of taking it.
func (h *holding) granted(e *Env, p *sim.Proc, at sim.Time, hit bool) {
	if hit {
		h.hits++
	}
	h.heldSince = at + e.LockOp()
	p.Wake(at + e.LockOp())
}

// released records the critical section p is leaving.
func (h *holding) released(e *Env, p *sim.Proc) {
	if h.heldSince > 0 {
		e.CountCS(p.Clock() - h.heldSince)
	}
}

// Hits implements Lock.
func (h *holding) Hits() int64 { return h.hits }

// Barrier is one barrier instance: Arrive returns after every
// processor has arrived.
type Barrier interface {
	State
	Arrive(p *sim.Proc)
	Episodes() int64
}

// NewLock builds lock id with its global state placed on processor
// home, reduced mod NProcs.
type NewLock func(env *Env, id, home int) Lock

// NewBarrier builds barrier id; home is as for NewLock.
type NewBarrier func(env *Env, id, home int) Barrier

// DefaultLock and DefaultBarrier name the paper's algorithms; an empty
// selection resolves to them.
const (
	DefaultLock    = "token"
	DefaultBarrier = "tree"
)

// named is one registered algorithm: its -lock or -barrier spelling and
// its constructor.
type named[F any] struct {
	name string
	new  F
}

// The registries are literal slices sorted by name, not maps, so every
// listing is deterministic without an iteration-order laundering step.
var (
	lockAlgos = []named[NewLock]{
		{"mcs", newMCS}, {"ticket", newTicket}, {DefaultLock, newToken}, {"tournament", newTournament},
	}
	barrierAlgos = []named[NewBarrier]{
		{"dissemination", newDissemination}, {"mcstree", newMCSTree}, {"sense", newSense},
		{"tournament", newTournamentBarrier}, {DefaultBarrier, newTree},
	}
)

// LockByName resolves a -lock selection; "" selects DefaultLock.
func LockByName(name string) (NewLock, error) {
	return byName("lock", lockAlgos, cmp.Or(name, DefaultLock))
}

// BarrierByName resolves a -barrier selection; "" selects
// DefaultBarrier.
func BarrierByName(name string) (NewBarrier, error) {
	return byName("barrier", barrierAlgos, cmp.Or(name, DefaultBarrier))
}

func byName[F any](kind string, algos []named[F], name string) (F, error) {
	for _, a := range algos {
		if a.name == name {
			return a.new, nil
		}
	}
	var none F
	return none, &UnknownError{Kind: kind, Name: name, Known: names(algos)}
}

// LockNames lists every lock algorithm, sorted.
func LockNames() []string { return names(lockAlgos) }

// BarrierNames lists every barrier algorithm, sorted.
func BarrierNames() []string { return names(barrierAlgos) }

func names[F any](algos []named[F]) []string {
	ns := make([]string, len(algos))
	for i, a := range algos {
		ns[i] = a.name
	}
	return ns
}

// UnknownError reports a name that resolves to no registered algorithm.
type UnknownError struct {
	Kind  string // "lock" or "barrier"
	Name  string
	Known []string
}

func (e *UnknownError) Error() string {
	s := "unknown " + e.Kind + " algorithm " + e.Name + " (have"
	for _, n := range e.Known {
		s += " " + n
	}
	return s + ")"
}
