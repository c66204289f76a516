package core

import (
	"slices"
	"sort"

	"mgs/internal/vm"
)

// Structured Args values carried on protocol events (emitPageArgs), so
// machine consumers — the model checker's refinement spec — share one
// vocabulary with the emitters.
const (
	// REL event phases (Args[0]).
	RelRound        int64 = iota // round opened: Args[1]=targets, Args[2]=writeDir
	RelPended                    // folded into the round in progress
	RelNoTargets                 // no copies outstanding; RACK immediately
	RelRequeued                  // releaser's SSMP already captured; re-run later
	RelRequeuedHome              // post-refresh home release (update protocol)
	RelSatisfied                 // copy's capture round already done; RACK immediately
)

const (
	// FINISHINV arms (Args[0]); Args[1]=ssmp, Args[2]=isHome.
	FinvAckTeardown   int64 = iota // read copy dropped (ACK)
	FinvDiffTeardown               // write copy torn down (DIFF)
	FinvOneWRetain                 // single-writer retention (1WDATA)
	FinvGone                       // copy already gone at INV arrival
	FinvUpdateCapture              // update protocol: captured, copy kept
)

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ClientSnap is one SSMP's Local/Remote Client state for a page, as
// captured by SnapshotProtocol.
type ClientSnap struct {
	SSMP        int
	State       PageState
	HasTwin     bool
	TLBDir      uint64
	OwnerProc   int
	Gen         int64
	HomeGen     int64 // teardowns the home has counted for this SSMP (rmt[].gens)
	CapRound    int64 // release round that last captured this copy
	InvCount    int
	LockHeld    bool
	LockWaiters int
	FrameSum    uint64 // FNV-1a of the copy's frame, 0 when no frame
	TwinSum     uint64 // FNV-1a of the twin, 0 when none
}

// PageSnap is the Server's state for one page plus every SSMP's client
// state, as captured by SnapshotProtocol.
type PageSnap struct {
	Page       vm.Page
	HomeProc   int
	InRound    bool // server state == sRel
	Writable   bool // server state == sWrite
	ReadDir    uint64
	WriteDir   uint64
	Count      int
	KeepWriter int
	SawDiff    bool
	HomeDirty  bool
	Round      int64 // current/most recent release round id
	InvQueued  int
	PendRel    int
	PendReq    int
	PendReRel  int
	FrameSum   uint64 // FNV-1a of the home frame
	Clients    []ClientSnap
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// SnapshotProtocol captures the protocol-visible state of every touched
// page — server directories and round bookkeeping plus per-SSMP client
// states — sorted by page number so two snapshots of one state compare
// (and hash) equal. Host-side, no simulated cost. The model checker
// uses it both for invariant checking and for canonical state hashing.
func (s *System) SnapshotProtocol() []PageSnap {
	var pages []vm.Page
	for _, ss := range s.ssmps {
		ss.servers.Each(func(v vm.Page, _ *serverPage) { pages = append(pages, v) })
		ss.pages.Each(func(v vm.Page, _ *clientPage) { pages = append(pages, v) })
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	// A client page can exist without a server entry (never faulted
	// remotely); dedupe after the merge above.
	out := make([]PageSnap, 0, len(pages))
	for i, v := range pages {
		if i > 0 && pages[i-1] == v {
			continue
		}
		ps := PageSnap{Page: v, HomeProc: s.space.HomeProc(v), KeepWriter: -1}
		sp := s.serverIfExists(v)
		if sp != nil {
			ps.HomeProc = sp.homeProc
			ps.InRound = sp.state == sRel
			ps.Writable = sp.state == sWrite
			ps.ReadDir, ps.WriteDir = sp.readDir.mask64(), sp.writeDir.mask64()
			ps.Count = sp.count
			ps.KeepWriter = sp.keepWriter
			ps.SawDiff, ps.HomeDirty = sp.sawDiff, sp.homeDirty
			ps.Round = sp.round
			ps.InvQueued = len(sp.invQueue)
			ps.PendRel, ps.PendReq, ps.PendReRel = len(sp.pendRel), len(sp.pendReq), len(sp.pendReRel)
			ps.FrameSum = fnvBytes(fnvOffset64, sp.frame.Data)
		}
		for _, ss := range s.ssmps {
			cs := ClientSnap{SSMP: ss.id, State: PInv, OwnerProc: -1}
			if sp != nil {
				cs.HomeGen = sp.rmtGens(ss.id)
			}
			if cp := ss.pages.Get(v); cp != nil {
				cs.State = cp.state
				cs.HasTwin = cp.twin != nil
				cs.TLBDir = cp.tlbDir
				cs.OwnerProc = cp.ownerProc
				cs.Gen = cp.gen
				cs.CapRound = cp.capturedRound
				cs.InvCount = cp.invCount
				cs.LockHeld = cp.lk.held
				cs.LockWaiters = len(cp.lk.waiters)
				if cp.frame != nil {
					cs.FrameSum = fnvBytes(fnvOffset64, cp.frame.Data)
				}
				if cp.twin != nil {
					cs.TwinSum = fnvBytes(fnvOffset64, cp.twin)
				}
			}
			ps.Clients = append(ps.Clients, cs)
		}
		out = append(out, ps)
	}
	return out
}

// DUQPages returns processor p's delayed-update-queue entries in queue
// order (tests and the model checker).
func (s *System) DUQPages(p int) []vm.Page {
	d := &s.cpus[p].duq
	return slices.Clone(d.queue[d.head:])
}
