package check

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"mgs/internal/core"
	"mgs/internal/harness"
	"mgs/internal/msync"
	"mgs/internal/obs"
	"mgs/internal/sim"
)

// Options configures one exploration.
type Options struct {
	Workload Workload
	// Mutate arms the seeded stale-WNOTIFY bug (core.System.
	// MutStaleWNotify) — the mutation-regression target the explorer
	// must find.
	Mutate bool
	// Budgets. Zero fields take the defaults.
	MaxStates int // distinct canonical states to visit
	MaxRuns   int // schedules to execute
	MaxDepth  int // choices recorded per run (deeper runs still finish)
	// Sink, when non-nil, additionally receives every trace event of
	// every run (replay rendering; very verbose during exploration).
	Sink obs.Sink
}

// Defaults for zero Options fields.
const (
	DefaultMaxStates = 200000
	DefaultMaxRuns   = 50000
	DefaultMaxDepth  = 4096
)

// Result summarizes one exploration.
type Result struct {
	Workload  string
	Runs      int  // schedules executed
	States    int  // distinct canonical states visited
	Choices   int  // total deliveries dispatched at choice points
	MaxFanout int  // widest choice seen
	Complete  bool // frontier exhausted within the budgets
	Violation *Violation
}

// Violation is one counterexample: what failed, and the delivery
// schedule that reproduces it.
type Violation struct {
	Kind  string // "divergence" | "invariant" | "value" | "deadlock"
	Msg   string
	Trace Trace
}

func (v *Violation) String() string { return fmt.Sprintf("%s: %s", v.Kind, v.Msg) }

// errStop is the sentinel the chooser stops the engine with once a
// violation is recorded mid-run.
var errStop = errors.New("check: violation")

// explorer holds the cross-run exploration state: the canonical-state
// visited set and the DFS stack of schedule prefixes.
type explorer struct {
	opt     Options
	visited map[uint64]struct{}
	stack   [][]int
	res     Result
}

// Explore runs the bounded-exhaustive search: depth-first over schedule
// prefixes, re-executing the workload from scratch for each (runs are
// cheap; state is never checkpointed), pruning any subtree rooted at an
// already-visited canonical state. The first violation aborts the
// search with its counterexample trace.
//
// Everything is deterministic: the same options always explore the same
// schedules in the same order and return the identical Result.
func Explore(opt Options) (Result, error) {
	if err := opt.Workload.Validate(); err != nil {
		return Result{}, err
	}
	if opt.MaxStates <= 0 {
		opt.MaxStates = DefaultMaxStates
	}
	if opt.MaxRuns <= 0 {
		opt.MaxRuns = DefaultMaxRuns
	}
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = DefaultMaxDepth
	}
	ex := &explorer{
		opt:     opt,
		visited: make(map[uint64]struct{}),
		stack:   [][]int{nil},
		res:     Result{Workload: opt.Workload.Name, Complete: true},
	}
	for len(ex.stack) > 0 {
		if ex.res.Runs >= opt.MaxRuns || len(ex.visited) >= opt.MaxStates {
			ex.res.Complete = false
			break
		}
		prefix := ex.stack[len(ex.stack)-1]
		ex.stack = ex.stack[:len(ex.stack)-1]
		rc, err := ex.runOne(prefix)
		if err != nil {
			return ex.res, err
		}
		ex.res.Runs++
		if rc.truncated {
			ex.res.Complete = false
		}
		if rc.vio != nil {
			ex.res.Violation = rc.vio
			ex.res.States = len(ex.visited)
			return ex.res, nil
		}
		// Expand alternatives, deepest first (DFS order): only at steps
		// whose pre-state this run discovered — a state seen before has
		// had (or will have) its successors expanded by its discoverer.
		for d := len(rc.steps) - 1; d >= len(prefix); d-- {
			st := rc.steps[d]
			if !st.first {
				continue
			}
			for c := st.fanout - 1; c >= 1; c-- {
				alt := make([]int, d+1)
				copy(alt, rc.taken[:d])
				alt[d] = c
				ex.stack = append(ex.stack, alt)
			}
		}
	}
	ex.res.States = len(ex.visited)
	return ex.res, nil
}

// step records one choice point of one run.
type step struct {
	fanout int
	first  bool // this run discovered the pre-state
}

// runChooser drives one execution: it follows the schedule prefix, then
// the default (earliest-delivery) order, and performs the per-boundary
// checks — snapshot, spec comparison, invariants, canonical hashing —
// before every choice.
type runChooser struct {
	ex     *explorer // nil during replay (no visited bookkeeping)
	w      Workload
	prefix []int
	m      machineRefs
	spec   *Spec
	rs     *runState

	depth        int
	taken        []int
	labels       []sim.Label
	steps        []step
	vio          *Violation
	truncated    bool
	replayMutate bool // Mutate flag during replay (ex == nil)
}

// machineRefs is the slice of the machine the chooser needs.
type machineRefs struct {
	eng  *sim.Engine
	dsm  *core.System
	sync *msync.System
	stop func(error)
}

// syncState renders the synchronization state as DumpState text — the
// canonical form folded into the state hash, so two interleavings that
// differ only in lock/barrier protocol state stay distinct.
func (m machineRefs) syncState() string {
	var sb strings.Builder
	m.sync.DumpState(func(format string, args ...any) {
		fmt.Fprintf(&sb, format+"\n", args...)
	})
	return sb.String()
}

// Choose implements sim.Chooser.
func (rc *runChooser) Choose(now sim.Time, ready []sim.Choice) int {
	if rc.vio != nil {
		return 0 // stopping; drain deterministically
	}
	snaps := rc.m.dsm.SnapshotProtocol()
	if err := rc.spec.Err(); err != nil {
		rc.fail("divergence", err)
		return 0
	}
	if err := rc.spec.Compare(snaps); err != nil {
		rc.fail("divergence", err)
		return 0
	}
	if err := checkInvariants(rc.w, snaps, ready); err != nil {
		rc.fail("invariant", err)
		return 0
	}
	if rc.depth >= cap2(rc.ex, DefaultMaxDepth) {
		// Past the recording horizon: finish the run on the default
		// schedule without recording (the run still terminates; the
		// exploration is marked incomplete).
		rc.truncated = true
		return 0
	}
	first := false
	if rc.ex != nil {
		h := stateHash(snaps, rc.m.syncState(), rc.rs.ip, ready)
		if _, ok := rc.ex.visited[h]; !ok {
			rc.ex.visited[h] = struct{}{}
			first = true
		}
		rc.ex.res.Choices++
		if len(ready) > rc.ex.res.MaxFanout {
			rc.ex.res.MaxFanout = len(ready)
		}
	}
	k := 0
	if rc.depth < len(rc.prefix) {
		k = rc.prefix[rc.depth]
		if k < 0 || k >= len(ready) {
			rc.fail("invariant", fmt.Errorf("check: trace choice %d at step %d out of range (fanout %d)",
				k, rc.depth, len(ready)))
			return 0
		}
	}
	rc.steps = append(rc.steps, step{fanout: len(ready), first: first})
	rc.taken = append(rc.taken, k)
	rc.labels = append(rc.labels, ready[k].Label)
	rc.depth++
	return k
}

func cap2(ex *explorer, def int) int {
	if ex == nil {
		return def
	}
	return ex.opt.MaxDepth
}

// fail records the violation with the schedule that reached it and
// stops the engine. The run's parked processor goroutines leak — only
// ever once per exploration, on the terminal counterexample.
func (rc *runChooser) fail(kind string, err error) {
	if rc.vio != nil {
		return
	}
	rc.vio = &Violation{Kind: kind, Msg: err.Error()}
	rc.vio.Trace = rc.trace()
	rc.m.stop(errStop)
}

// trace serializes the schedule taken so far.
func (rc *runChooser) trace() Trace {
	t := Trace{
		Workload: rc.w.Name,
		Lock:     rc.w.Lock,
		Barrier:  rc.w.Barrier,
		Mutate:   rc.mutate(),
		Choices:  append([]int(nil), rc.taken...),
	}
	for _, l := range rc.labels {
		t.Labels = append(t.Labels, l.String())
	}
	if rc.vio != nil {
		t.Kind = rc.vio.Kind
		t.Violation = rc.vio.Msg
	}
	return t
}

func (rc *runChooser) mutate() bool {
	if rc.ex != nil {
		return rc.ex.opt.Mutate
	}
	return rc.replayMutate
}

// runOne executes one schedule from a fresh machine and performs the
// end-of-run checks if it completes cleanly.
func (ex *explorer) runOne(prefix []int) (*runChooser, error) {
	return execute(ex, ex.opt.Workload, prefix, ex.opt.Mutate, ex.opt.Sink)
}

// execute builds a fresh machine, installs the chooser, runs the
// schedule to completion, and applies the end-of-run oracles: final
// spec agreement, quiescence invariants (every page quiet, nothing in
// flight, every request answered), and the value-level checks (read
// legality, release visibility of final memory, drained update
// queues). ex is nil during replay.
func execute(ex *explorer, w Workload, prefix []int, mutate bool, sink obs.Sink) (*runChooser, error) {
	spec := NewSpec(w)
	m, rs, base := w.newMachine(spec, sink, mutate)
	rc := &runChooser{
		ex: ex, w: w, prefix: prefix, spec: spec, rs: rs,
		m:            machineRefs{eng: m.Eng, dsm: m.DSM, sync: m.Sync, stop: m.Eng.Stop},
		replayMutate: mutate,
	}
	m.Eng.SetChooser(rc)
	_, err := m.RunPer(func(i int) func(c *harness.Ctx) { return w.bodyFor(rs, base, i) })
	if rc.vio != nil {
		return rc, nil // recorded mid-run; the engine was stopped
	}
	if err != nil {
		// The engine drained with processors stuck: a protocol deadlock
		// under this schedule.
		rc.vio = &Violation{Kind: "deadlock", Msg: err.Error()}
		rc.vio.Trace = rc.trace()
		return rc, nil
	}
	snaps := m.DSM.SnapshotProtocol()
	final := func(kind string, e error) {
		rc.vio = &Violation{Kind: kind, Msg: e.Error()}
		rc.vio.Trace = rc.trace()
	}
	switch {
	case spec.Err() != nil:
		final("divergence", spec.Err())
	case spec.Compare(snaps) != nil:
		final("divergence", spec.Compare(snaps))
	case checkInvariants(w, snaps, nil) != nil:
		final("invariant", checkInvariants(w, snaps, nil))
	case quiescence(snaps) != nil:
		final("invariant", quiescence(snaps))
	case m.Sync.Quiescent() != nil:
		final("invariant", m.Sync.Quiescent())
	case m.DSM.Quiescent() != nil:
		final("invariant", m.DSM.Quiescent())
	case w.finalChecks(m, rs) != nil:
		final("value", w.finalChecks(m, rs))
	}
	return rc, nil
}

// quiescence demands a fully settled protocol once every processor has
// finished: no open rounds, no queued work of any kind.
func quiescence(snaps []core.PageSnap) error {
	for _, sn := range snaps {
		if sn.InRound || sn.InvQueued != 0 || sn.PendRel != 0 || sn.PendReq != 0 || sn.PendReRel != 0 {
			return fmt.Errorf("check: page %d not quiescent at termination (round=%v invq=%d rel=%d req=%d rerel=%d)",
				sn.Page, sn.InRound, sn.InvQueued, sn.PendRel, sn.PendReq, sn.PendReRel)
		}
		for _, cs := range sn.Clients {
			if cs.LockHeld || cs.LockWaiters != 0 {
				return fmt.Errorf("check: page %d ssmp %d page-table lock still held/waited at termination", sn.Page, cs.SSMP)
			}
		}
	}
	return nil
}

// stateHash folds one delivery-boundary state into a canonical 64-bit
// FNV-1a digest: the full protocol snapshot (directories, round
// bookkeeping, client states, frame and twin content sums), every
// processor's script progress, and the multiset of labeled messages in
// flight (sorted by label, so two states differing only in virtual
// clocks hash alike — the abstraction that makes pruning effective;
// see DESIGN.md for the soundness discussion).
func stateHash(snaps []core.PageSnap, syncState string, ip []int64, ready []sim.Choice) uint64 {
	h := uint64(14695981039346656037)
	u := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		u(uint64(len(s)))
	}
	for _, sn := range snaps {
		u(uint64(sn.Page))
		u(uint64(sn.HomeProc))
		b(sn.InRound)
		b(sn.Writable)
		u(sn.ReadDir)
		u(sn.WriteDir)
		u(uint64(int64(sn.Count)))
		u(uint64(int64(sn.KeepWriter)))
		b(sn.SawDiff)
		b(sn.HomeDirty)
		u(uint64(sn.Round))
		u(uint64(sn.InvQueued))
		u(uint64(sn.PendRel))
		u(uint64(sn.PendReq))
		u(uint64(sn.PendReRel))
		u(sn.FrameSum)
		for _, cs := range sn.Clients {
			u(uint64(cs.SSMP))
			u(uint64(cs.State))
			b(cs.HasTwin)
			u(cs.TLBDir)
			u(uint64(int64(cs.OwnerProc)))
			u(uint64(cs.Gen))
			u(uint64(cs.HomeGen))
			u(uint64(cs.CapRound))
			u(uint64(cs.InvCount))
			b(cs.LockHeld)
			u(uint64(cs.LockWaiters))
			u(cs.FrameSum)
			u(cs.TwinSum)
		}
	}
	str(syncState)
	for _, v := range ip {
		u(uint64(v))
	}
	labels := make([]sim.Label, len(ready))
	for i, ch := range ready {
		labels[i] = ch.Label
	}
	sort.Slice(labels, func(i, j int) bool {
		a, z := labels[i], labels[j]
		switch {
		case a.Kind != z.Kind:
			return a.Kind < z.Kind
		case a.Page != z.Page:
			return a.Page < z.Page
		case a.Src != z.Src:
			return a.Src < z.Src
		case a.Dst != z.Dst:
			return a.Dst < z.Dst
		default:
			return a.Aux < z.Aux
		}
	})
	for _, l := range labels {
		str(l.Kind)
		u(uint64(l.Page))
		u(uint64(int64(l.Src)))
		u(uint64(int64(l.Dst)))
		u(uint64(l.Aux))
	}
	return h
}
