// Package check is the MGS model checker: a bounded-exhaustive explorer
// that drives the real protocol implementation (internal/core) through
// every message-delivery interleaving of small fixed workloads, checking
// protocol invariants at every delivery boundary and cross-checking each
// execution against an executable abstract specification of the
// Local Client / Remote Client / Server state machines (paper Tables
// 2–3). Counterexamples serialize as replayable choice traces
// (mgs check -replay).
package check

import (
	"fmt"

	"mgs/internal/harness"
	"mgs/internal/msync/algo"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/vm"
)

// OpKind is one step of a workload script.
type OpKind uint8

const (
	// OpWrite stores the op's sentinel value (proc*1000+index+1) to the
	// word. Every word has a unique writer, so runs are data-race-free
	// and every read has a computable set of legal values.
	OpWrite OpKind = iota
	// OpRead loads the word and records the observed value for
	// end-of-run validation.
	OpRead
	// OpFence drains the processor's delayed update queue (an explicit
	// release point).
	OpFence
	// OpLockedAdd acquires lock 0, reads the word, computes, writes back
	// the value plus the op's sentinel, and releases. Words touched by
	// OpLockedAdd are "locked words": many processors may add to them
	// (the lock serializes), and at quiescence the word must hold
	// exactly the sum of every OpLockedAdd sentinel — the value oracle
	// that catches a mutual-exclusion violation as a lost update.
	OpLockedAdd
	// OpBarrier arrives at barrier 0. Every processor's script must
	// contain the same number of OpBarrier ops.
	OpBarrier
)

// Op is one scripted operation.
type Op struct {
	Kind OpKind
	Page int // page index within the workload's shared region
	Word int // 8-byte word index within the page
}

// Workload is one fixed, small scenario the explorer enumerates
// schedules of: a machine shape, a homed shared region, and a per-
// processor script. Scripts must be data-race-free (one writer per
// word) and every processor that writes must end with OpFence, so the
// home frames are authoritative at quiescence.
type Workload struct {
	Name     string
	P, C     int
	Pages    int
	PageSize int
	Delay    sim.Time // inter-SSMP latency override (0 = harness default)
	Home     []int    // home processor of each page
	Script   [][]Op   // per-processor op sequences

	// Lock and Barrier select the synchronization algorithms
	// (internal/msync/algo names) used by OpLockedAdd and OpBarrier.
	// Empty means the paper's token lock and tree barrier.
	Lock    string
	Barrier string
}

// WithSync returns the workload with lock and barrier filled in where
// it names no algorithm of its own (mgs check -lock / -barrier).
func (w Workload) WithSync(lock, barrier string) Workload {
	if w.Lock == "" {
		w.Lock = lock
	}
	if w.Barrier == "" {
		w.Barrier = barrier
	}
	return w
}

// WriteVal is the sentinel op (proc, index) writes: unique per op, so a
// read's observed value names exactly which write it saw.
func WriteVal(proc, idx int) int64 { return int64(proc*1000 + idx + 1) }

// Workloads returns the built-in scenarios, in fixed order.
func Workloads() []Workload {
	w := func(p, wd int) Op { return Op{Kind: OpWrite, Page: p, Word: wd} }
	r := func(p, wd int) Op { return Op{Kind: OpRead, Page: p, Word: wd} }
	f := Op{Kind: OpFence}
	return append([]Workload{
		{
			// Two SSMPs write disjoint words of one page homed at proc 0
			// and cross-read: the multiple-writer twin/diff path, home
			// in-place writes, and release rounds all exercise.
			Name: "write-share", P: 2, C: 1, Pages: 1, PageSize: 256,
			Home: []int{0},
			Script: [][]Op{
				{w(0, 0), f, r(0, 1)},
				{w(0, 1), f, r(0, 0)},
			},
		},
		{
			// Proc 0 reads then upgrades a page homed at proc 1 while
			// proc 1 writes and releases: the WNOTIFY from the upgrade
			// can be delayed past the round's teardown reply for the same
			// copy — the stale-notification window the home's teardown
			// ledger guards (and System.MutStaleWNotify re-opens). The wide
			// LAN delay keeps the intra-SSMP capture chain shorter than a
			// message flight, so the teardown reply can be in the air
			// while the notification still is (with the default delay,
			// handler occupancy alone outlasts the flight window and the
			// race becomes unreachable).
			Name: "upgrade-race", P: 2, C: 1, Pages: 1, PageSize: 256,
			Delay: 20000,
			Home:  []int{1},
			Script: [][]Op{
				{r(0, 1), w(0, 0), f},
				{w(0, 1), f, r(0, 0)},
			},
		},
		{
			// Two pages with opposite homes, each written by both
			// processors: interleaved release rounds on independent
			// pages.
			Name: "two-page", P: 2, C: 1, Pages: 2, PageSize: 256,
			Home: []int{0, 1},
			Script: [][]Op{
				{w(0, 0), w(1, 0), f, r(1, 1)},
				{w(1, 1), w(0, 1), f, r(0, 0)},
			},
		},
		{
			// Three SSMPs in a ring on one page: concurrent rounds with
			// pended releases and requests.
			Name: "three-proc", P: 3, C: 1, Pages: 1, PageSize: 256,
			Home: []int{0},
			Script: [][]Op{
				{w(0, 0), f, r(0, 1)},
				{w(0, 1), f, r(0, 2)},
				{w(0, 2), f, r(0, 0)},
			},
		},
	}, SyncWorkloads()...)
}

// SyncWorkloads builds one lock workload and one barrier workload per
// synchronization algorithm (defaults included): two SSMPs hammer one
// locked counter through all delivery interleavings, checking mutual
// exclusion (no concurrent critical sections), the summed-update value
// oracle, and end-of-run sync quiescence; the barrier variant checks
// cross-barrier write visibility and episode agreement.
func SyncWorkloads() []Workload {
	w := func(p, wd int) Op { return Op{Kind: OpWrite, Page: p, Word: wd} }
	r := func(p, wd int) Op { return Op{Kind: OpRead, Page: p, Word: wd} }
	la := func(p, wd int) Op { return Op{Kind: OpLockedAdd, Page: p, Word: wd} }
	bar := Op{Kind: OpBarrier}
	var ws []Workload
	for _, name := range algo.LockNames() {
		ws = append(ws, Workload{
			Name: "lock-" + name, P: 2, C: 1, Pages: 1, PageSize: 256,
			Home: []int{0}, Lock: name,
			Script: [][]Op{
				{la(0, 0), la(0, 0)},
				{la(0, 0), la(0, 0)},
			},
		})
	}
	for _, name := range algo.BarrierNames() {
		ws = append(ws, Workload{
			Name: "barrier-" + name, P: 2, C: 1, Pages: 1, PageSize: 256,
			Home: []int{0}, Barrier: name,
			Script: [][]Op{
				{w(0, 0), bar, r(0, 1), bar},
				{w(0, 1), bar, r(0, 0), bar},
			},
		})
	}
	return ws
}

// Lookup finds a built-in workload by name.
func Lookup(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Validate checks the structural rules the explorer's oracles rely on.
func (w Workload) Validate() error {
	if w.P <= 0 || w.C <= 0 || w.P%w.C != 0 {
		return fmt.Errorf("check: workload %q: bad shape P=%d C=%d", w.Name, w.P, w.C)
	}
	if len(w.Home) != w.Pages {
		return fmt.Errorf("check: workload %q: %d pages but %d homes", w.Name, w.Pages, len(w.Home))
	}
	if len(w.Script) != w.P {
		return fmt.Errorf("check: workload %q: %d procs but %d scripts", w.Name, w.P, len(w.Script))
	}
	writer := make(map[[2]int]int)
	locked := make(map[[2]int]bool)
	plain := make(map[[2]int]bool)
	barriers := -1
	for p, ops := range w.Script {
		unfenced := false
		nbar := 0
		for _, op := range ops {
			switch op.Kind {
			case OpFence:
				unfenced = false
				continue
			case OpBarrier:
				// A barrier is a release point too.
				unfenced = false
				nbar++
				continue
			}
			if op.Page < 0 || op.Page >= w.Pages || op.Word < 0 || op.Word >= w.PageSize/8 {
				return fmt.Errorf("check: workload %q: op out of range page=%d word=%d", w.Name, op.Page, op.Word)
			}
			k := [2]int{op.Page, op.Word}
			switch op.Kind {
			case OpWrite:
				unfenced = true
				plain[k] = true
				if q, ok := writer[k]; ok && q != p {
					return fmt.Errorf("check: workload %q: word (%d,%d) written by procs %d and %d (scripts must be DRF)",
						w.Name, op.Page, op.Word, q, p)
				}
				writer[k] = p
			case OpRead:
				plain[k] = true
			case OpLockedAdd:
				// The lock's release flushes, so a trailing locked add
				// never leaves unfenced writes.
				locked[k] = true
			}
			if locked[k] && plain[k] {
				return fmt.Errorf("check: workload %q: word (%d,%d) is both locked and plainly accessed", w.Name, op.Page, op.Word)
			}
		}
		if unfenced {
			return fmt.Errorf("check: workload %q: proc %d has writes after its last fence", w.Name, p)
		}
		if barriers >= 0 && nbar != barriers {
			return fmt.Errorf("check: workload %q: processors disagree on barrier count (%d vs %d)", w.Name, barriers, nbar)
		}
		barriers = nbar
	}
	return nil
}

// readObs is one observed read, validated at end of run.
type readObs struct {
	Proc, Idx  int
	Page, Word int
	Val        int64
}

// runState is the host-side progress record of one execution: per-
// processor instruction pointers (folded into the canonical state hash
// so two states that differ only in script progress stay distinct) and
// the reads observed so far.
type runState struct {
	ip    []int64
	reads []readObs
	// cs counts processors inside lock 0's critical section; csViol
	// counts overlaps — any overlap is a mutual-exclusion violation of
	// the lock algorithm under this schedule.
	cs, csViol int
}

// wordAddr returns the simulated address of (page, word) in the shared
// region at base.
func (w Workload) wordAddr(base vm.Addr, page, word int) vm.Addr {
	return base + vm.Addr(page*w.PageSize+word*8)
}

// bodyFor builds processor i's script runner. Procs are engine
// coroutines, so the shared runState needs no locking.
func (w Workload) bodyFor(rs *runState, base vm.Addr, i int) func(c *harness.Ctx) {
	ops := w.Script[i]
	return func(c *harness.Ctx) {
		for k, op := range ops {
			rs.ip[i] = int64(k)
			switch op.Kind {
			case OpWrite:
				c.StoreI64(w.wordAddr(base, op.Page, op.Word), WriteVal(i, k))
			case OpRead:
				v := c.LoadI64(w.wordAddr(base, op.Page, op.Word))
				rs.reads = append(rs.reads, readObs{Proc: i, Idx: k, Page: op.Page, Word: op.Word, Val: v})
			case OpFence:
				c.Fence()
			case OpLockedAdd:
				c.Acquire(0)
				if rs.cs != 0 {
					rs.csViol++
				}
				rs.cs++
				a := w.wordAddr(base, op.Page, op.Word)
				v := c.LoadI64(a)
				c.Compute(200)
				c.StoreI64(a, v+WriteVal(i, k))
				rs.cs--
				c.Release(0)
			case OpBarrier:
				c.Barrier(0)
			}
		}
		rs.ip[i] = int64(len(ops))
	}
}

// newMachine assembles one fresh machine for the workload, with the
// spec listening on the observability spine and (optionally) an extra
// sink rendering the run for humans. mutate arms the seeded
// stale-WNOTIFY bug (core.System.MutStaleWNotify).
func (w Workload) newMachine(sp *Spec, extra obs.Sink, mutate bool) (*harness.Machine, *runState, vm.Addr) {
	o := obs.New().AddSink(obs.FuncSink(sp.Feed))
	if extra != nil {
		o.AddSink(extra)
	}
	opts := []harness.Option{
		harness.WithPageSize(w.PageSize),
		harness.WithObserver(o),
		harness.WithLockAlgo(w.Lock),
		harness.WithBarrierAlgo(w.Barrier),
	}
	if w.Delay > 0 {
		opts = append(opts, harness.WithInterSSMPDelay(w.Delay))
	}
	m := harness.NewMachine(harness.NewConfig(w.P, w.C, opts...))
	if mutate {
		m.DSM.MutStaleWNotify()
	}
	base := m.AllocHomed(w.Pages*w.PageSize, func(pg int) int { return w.Home[pg] })
	sp.SetBase(int64(m.DSM.Space().PageOf(base)))
	rs := &runState{ip: make([]int64, w.P)}
	return m, rs, base
}

// finalChecks validates the value-level oracles after a clean run:
// every observed read saw a legal value (its own latest write for the
// word's writer, otherwise zero or any sentinel its unique writer ever
// stores), the home frames hold exactly the last write of every word,
// and every delayed update queue drained.
func (w Workload) finalChecks(m *harness.Machine, rs *runState) error {
	if rs.csViol > 0 {
		return fmt.Errorf("check: %d mutual-exclusion violations (lock=%q let two processors into the critical section)",
			rs.csViol, w.Lock)
	}
	type wordKey = [2]int
	writer := make(map[wordKey]int)
	last := make(map[wordKey]int64)
	legal := make(map[wordKey]map[int64]bool)
	lockedSum := make(map[wordKey]int64)
	nbar := 0
	for p, ops := range w.Script {
		pbar := 0
		for k, op := range ops {
			switch op.Kind {
			case OpBarrier:
				pbar++
				continue
			case OpLockedAdd:
				lockedSum[wordKey{op.Page, op.Word}] += WriteVal(p, k)
				continue
			case OpWrite:
			default:
				continue
			}
			key := wordKey{op.Page, op.Word}
			writer[key] = p
			last[key] = WriteVal(p, k)
			if legal[key] == nil {
				legal[key] = map[int64]bool{0: true}
			}
			legal[key][WriteVal(p, k)] = true
		}
		if pbar > nbar {
			nbar = pbar
		}
	}
	for _, r := range rs.reads {
		key := wordKey{r.Page, r.Word}
		if wp, ok := writer[key]; ok && wp == r.Proc {
			// The word's own writer must read its latest prior write.
			want := int64(0)
			for k, op := range w.Script[r.Proc][:r.Idx] {
				if op.Kind == OpWrite && op.Page == r.Page && op.Word == r.Word {
					want = WriteVal(r.Proc, k)
				}
			}
			if r.Val != want {
				return fmt.Errorf("check: proc %d op %d read own word (%d,%d) = %d, want %d",
					r.Proc, r.Idx, r.Page, r.Word, r.Val, want)
			}
			continue
		}
		set := legal[key]
		if set == nil {
			set = map[int64]bool{0: true}
		}
		if !set[r.Val] {
			return fmt.Errorf("check: proc %d op %d read word (%d,%d) = %d, not a value any write produced",
				r.Proc, r.Idx, r.Page, r.Word, r.Val)
		}
		// Barrier visibility: a write the reader is separated from by a
		// passed barrier episode must be seen (it, or a later write by
		// the same writer) — the oracle that catches a barrier releasing
		// early under some delivery schedule.
		if wp, ok := writer[key]; ok && wp != r.Proc {
			bIdx := barsBefore(w.Script[r.Proc], r.Idx)
			reqIdx := -1
			for k, op := range w.Script[wp] {
				if op.Kind == OpWrite && op.Page == r.Page && op.Word == r.Word && barsBefore(w.Script[wp], k) < bIdx {
					reqIdx = k
				}
			}
			if reqIdx >= 0 {
				seen := false
				for k, op := range w.Script[wp][reqIdx:] {
					if op.Kind == OpWrite && op.Page == r.Page && op.Word == r.Word && r.Val == WriteVal(wp, reqIdx+k) {
						seen = true
						break
					}
				}
				if !seen {
					return fmt.Errorf("check: proc %d op %d read word (%d,%d) = %d across barrier, want proc %d's write %d (barrier=%q leaked)",
						r.Proc, r.Idx, r.Page, r.Word, r.Val, wp, WriteVal(wp, reqIdx), w.Barrier)
				}
			}
		}
	}
	if nbar > 0 {
		if got := m.Sync.Barrier(0).Episodes(); got != int64(nbar) {
			return fmt.Errorf("check: barrier episodes = %d, want %d (barrier=%q)", got, nbar, w.Barrier)
		}
	}
	// The shared region is the machine's only allocation; recover its
	// base from the break and the workload geometry.
	base := m.DSM.Space().Brk() - vm.Addr(w.Pages*w.PageSize)
	perPage := w.PageSize / 8
	if err := m.VisitWords(base, w.Pages*perPage, func(i int, got uint64) error {
		key := wordKey{i / perPage, i % perPage}
		want := last[key] // zero for unwritten words
		if s, ok := lockedSum[key]; ok {
			want = s // locked words: no update may be lost
		}
		if int64(got) != want {
			return fmt.Errorf("check: final memory word (%d,%d) = %d, want %d (release visibility)",
				key[0], key[1], int64(got), want)
		}
		return nil
	}); err != nil {
		return err
	}
	for p := 0; p < w.P; p++ {
		if q := m.DSM.DUQPages(p); len(q) != 0 {
			return fmt.Errorf("check: proc %d delayed update queue not drained at quiescence: %v", p, q)
		}
	}
	return nil
}

// barsBefore counts OpBarrier ops strictly before index idx.
func barsBefore(ops []Op, idx int) int {
	n := 0
	for _, op := range ops[:idx] {
		if op.Kind == OpBarrier {
			n++
		}
	}
	return n
}
