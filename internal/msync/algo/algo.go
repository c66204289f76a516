// Package algo is the MGS synchronization-algorithm family: every lock
// and barrier the machine can run, expressed purely as message sequences
// over the MGS interconnect and selected by name through
// harness.WithLockAlgo / WithBarrierAlgo (or the -lock / -barrier flags
// of every tool). The defaults are the paper's §3.2 library — the
// token-based distributed lock ("token") and the two-level tree barrier
// ("tree") — beside ticket, MCS and tournament locks and sense-
// reversing, dissemination, MCS-tree and tournament barriers.
//
// An algorithm never touches the memory system directly. msync.System
// wraps every lock/barrier in a shim that runs the release-consistency
// protocol actions (ReleaseAll before a release or barrier arrival,
// AcquireSync after a grant or barrier exit) and the profiler
// attribution, so an implementation here is only the ordering protocol:
// who sends what to whom, who parks, who wakes. Every message is a real
// msg.Network send — it pays interconnect latency on every topology,
// rides the reliable transport under fault injection, and is a labeled
// delivery the model checker can reorder.
//
// Cycle-charging rules, shared by every algorithm:
//
//   - a processor-context operation charges Env.LockOp/BarrierOp to its
//     category, plus Env.SendCost for each message the processor sends;
//   - handler-context sends are free to the processor (the handler's
//     work cycles are charged to the MGS category at the receiver);
//   - parked time is charged to the category on wake and observed into
//     the lock.waitcycles / barrier.waitcycles histograms via
//     Env.LockWaited / Env.BarrierWaited;
//   - critical-section occupancy feeds Env.CountCS at release.
package algo

import "mgs/internal/sim"

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
	// Stats reports hit/total acquire counts (Figure 11): a hit is an
	// acquire granted without inter-SSMP communication.
	Stats() (hits, total int64)
}

// Barrier is one barrier instance: Arrive returns after every
// processor has arrived.
type Barrier interface {
	State
	Arrive(p *sim.Proc)
	Episodes() int64
}

// LockAlgo builds lock instances. Name is the -lock flag spelling. home
// is the processor the lock's global state is placed on; implementations
// reduce it mod NProcs.
type LockAlgo interface {
	Name() string
	NewLock(env *Env, id, home int) Lock
}

// BarrierAlgo builds barrier instances. Name is the -barrier spelling;
// home is as for LockAlgo.
type BarrierAlgo interface {
	Name() string
	NewBarrier(env *Env, id, home int) Barrier
}

// DefaultLock and DefaultBarrier name the paper's algorithms; an empty
// selection resolves to them.
const (
	DefaultLock    = "token"
	DefaultBarrier = "tree"
)

// The registries are literal slices sorted by name, not maps, so every
// listing is deterministic without an iteration-order laundering step.
var (
	lockAlgos    = []LockAlgo{MCS{}, Ticket{}, Token{}, Tournament{}}
	barrierAlgos = []BarrierAlgo{Dissemination{}, MCSTree{}, Sense{}, TournamentBarrier{}, Tree{}}
)

// LockByName resolves a -lock selection; "" selects DefaultLock.
func LockByName(name string) (LockAlgo, error) {
	if name == "" {
		name = DefaultLock
	}
	for _, a := range lockAlgos {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, &UnknownError{Kind: "lock", Name: name, Known: LockNames()}
}

// BarrierByName resolves a -barrier selection; "" selects
// DefaultBarrier.
func BarrierByName(name string) (BarrierAlgo, error) {
	if name == "" {
		name = DefaultBarrier
	}
	for _, a := range barrierAlgos {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, &UnknownError{Kind: "barrier", Name: name, Known: BarrierNames()}
}

// LockNames lists every lock algorithm, sorted.
func LockNames() []string {
	names := make([]string, len(lockAlgos))
	for i, a := range lockAlgos {
		names[i] = a.Name()
	}
	return names
}

// BarrierNames lists every barrier algorithm, sorted.
func BarrierNames() []string {
	names := make([]string, len(barrierAlgos))
	for i, a := range barrierAlgos {
		names[i] = a.Name()
	}
	return names
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
