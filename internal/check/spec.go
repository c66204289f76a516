package check

import (
	"fmt"

	"mgs/internal/core"
	"mgs/internal/obs"
)

// Spec is the executable abstract specification of the MGS eager
// protocol: the Local Client / Remote Client page states of paper
// Table 2 and the Server directory states of Table 3, driven not by the
// implementation's pointers but by the structured protocol events core
// emits (obs.Event.Args). The explorer replays every schedule through
// it and fails on divergence, so the concrete protocol is checked as a
// refinement of this machine.
//
// The spec covers the default eager-invalidate protocol (with the
// single-writer optimization). The lazy and update variants are out of
// the checker's scope.
type Spec struct {
	nssmp int
	c     int   // cluster size (maps an event's processor to its SSMP)
	base  int64 // first page of the checked region
	pages []*specPage
	err   error
}

// specClient is one SSMP's abstract client state for a page.
type specClient struct {
	state    core.PageState
	gen      int64 // incarnation: bumped at every copy teardown
	homeGens int64 // teardowns the Server has been told of (INVREPLY torn=1)
}

// specPage is the abstract Server state for a page plus all client
// states.
type specPage struct {
	readDir  uint64
	writeDir uint64
	inRound  bool
	clients  []specClient
}

// NewSpec builds the abstract machine for a workload: every page in
// state INV at every SSMP, empty directories.
func NewSpec(w Workload) *Spec {
	s := &Spec{nssmp: w.P / w.C, c: w.C, pages: make([]*specPage, w.Pages)}
	for i := range s.pages {
		s.pages[i] = &specPage{clients: make([]specClient, s.nssmp)}
	}
	return s
}

// SetBase records the region's first page number, so event page IDs map
// to spec pages.
func (s *Spec) SetBase(page int64) { s.base = page }

// Err returns the first divergence between implementation and spec, or
// nil.
func (s *Spec) Err() error { return s.err }

func (s *Spec) fail(e obs.Event, format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("spec divergence at t=%d page=%d %s: %s",
			e.T, e.ID, e.Name, fmt.Sprintf(format, args...))
	}
}

func (s *Spec) page(e obs.Event) *specPage {
	i := e.ID - s.base
	if i < 0 || i >= int64(len(s.pages)) {
		s.fail(e, "event for page outside the checked region")
		return nil
	}
	return s.pages[i]
}

func (s *Spec) client(e obs.Event, p *specPage, ssmp int64) *specClient {
	if ssmp < 0 || ssmp >= int64(len(p.clients)) {
		s.fail(e, "ssmp %d out of range", ssmp)
		return nil
	}
	return &p.clients[ssmp]
}

// Feed consumes one trace event (attach via obs.FuncSink). Only
// protocol-category events drive the machine; everything else is
// ignored. Each transition asserts its precondition — a violated
// precondition is a divergence, recorded in Err.
func (s *Spec) Feed(e obs.Event) {
	if s.err != nil || e.Cat != obs.Protocol || e.Kind != obs.ObjPage {
		return
	}
	switch e.Name {
	case "REQSTART":
		// Local Client leaves INV with an outstanding request (arc 5).
		p := s.page(e)
		if p == nil {
			return
		}
		cl := s.client(e, p, int64(e.Proc)/int64(s.c))
		if cl == nil {
			return
		}
		if cl.state != core.PInv {
			s.fail(e, "request from state %v, spec wants INV", cl.state)
			return
		}
		cl.state = core.PBusy

	case "DATA":
		// RDAT/WDAT arrival fills the copy (arcs 6–7).
		p := s.page(e)
		if p == nil {
			return
		}
		cl := s.client(e, p, int64(e.Proc)/int64(s.c))
		if cl == nil {
			return
		}
		if cl.state != core.PBusy {
			s.fail(e, "data arrival in state %v, spec wants BUSY", cl.state)
			return
		}
		if e.Args[0] != 0 {
			cl.state = core.PWrite
		} else {
			cl.state = core.PRead
		}

	case "LOCALFILL":
		// Arc 1/3/4: a local mapping satisfies the fault; no state
		// change, but the implementation reports the state it saw.
		p := s.page(e)
		if p == nil {
			return
		}
		cl := s.client(e, p, int64(e.Proc)/int64(s.c))
		if cl == nil {
			return
		}
		if int64(cl.state) != e.Args[1] {
			s.fail(e, "implementation in state %v, spec in %v", core.PageState(e.Args[1]), cl.state)
			return
		}
		write := e.Args[0] != 0
		if !(cl.state == core.PWrite || (cl.state == core.PRead && !write)) {
			s.fail(e, "local fill from state %v write=%v is not an arc", cl.state, write)
		}

	case "UPGRADE":
		// Remote Client applies a read-to-write upgrade (arc 13).
		p := s.page(e)
		if p == nil {
			return
		}
		cl := s.client(e, p, e.Args[1])
		if cl == nil {
			return
		}
		if e.Args[0] != 0 {
			if cl.state != core.PRead {
				s.fail(e, "upgrade applied in state %v, spec wants READ", cl.state)
				return
			}
			cl.state = core.PWrite
		}

	case "WNOTIFY":
		// Write notification at the Server (arc 18). The notification
		// names a copy incarnation; the Server judges it against its own
		// record of that SSMP's completed teardowns (it cannot read the
		// remote copy), so the spec keeps the same count (homeGens,
		// advanced by INVREPLY below) and the implementation's verdict
		// (Args[0]) must agree with it. A fresh notification moves the
		// SSMP from read_dir to write_dir.
		p := s.page(e)
		if p == nil {
			return
		}
		cl := s.client(e, p, e.Args[1])
		if cl == nil {
			return
		}
		stale := int64(0)
		if cl.homeGens != e.Args[2] {
			stale = 1
		}
		if stale != e.Args[0] {
			s.fail(e, "implementation says stale=%d, spec says stale=%d (home gens %d vs notify gen %d, state %v)",
				e.Args[0], stale, cl.homeGens, e.Args[2], cl.state)
			return
		}
		if stale == 0 {
			p.readDir &^= 1 << uint(e.Args[1])
			p.writeDir |= 1 << uint(e.Args[1])
		}

	case "INVREPLY":
		// ACK/DIFF/1WDATA arrival at the Server (arcs 22–23). A reply
		// carrying a teardown (Args[2]) retires one incarnation of that
		// SSMP's copy in the Server's ledger; the teardown itself
		// (cl.gen, FINISHINV) necessarily happened first.
		p := s.page(e)
		if p == nil {
			return
		}
		cl := s.client(e, p, e.Args[1])
		if cl == nil {
			return
		}
		if e.Args[2] != 0 {
			cl.homeGens++
			if cl.homeGens > cl.gen {
				s.fail(e, "home counted %d teardowns but only %d happened", cl.homeGens, cl.gen)
			}
		}

	case "SERVE":
		// Server grants a copy (arcs 17–19): register the SSMP in the
		// directory, unless it is the home SSMP (whose "copy" is the
		// home frame, never invalidated).
		p := s.page(e)
		if p == nil {
			return
		}
		if p.inRound {
			s.fail(e, "serve during a release round")
			return
		}
		if e.Args[2] == 0 {
			if e.Args[0] != 0 {
				p.writeDir |= 1 << uint(e.Args[1])
			} else {
				p.readDir |= 1 << uint(e.Args[1])
			}
		}

	case "REL":
		p := s.page(e)
		if p == nil {
			return
		}
		switch e.Args[0] {
		case core.RelRound:
			if p.inRound {
				s.fail(e, "round opened while a round is in progress")
				return
			}
			if p.readDir|p.writeDir == 0 {
				s.fail(e, "round opened with empty directories")
				return
			}
			p.inRound = true
		case core.RelNoTargets:
			if p.readDir|p.writeDir != 0 {
				s.fail(e, "immediate RACK with copies outstanding (R=%b W=%b)", p.readDir, p.writeDir)
			}
		case core.RelPended, core.RelRequeued, core.RelRequeuedHome:
			if !p.inRound {
				s.fail(e, "release queued behind a round that is not open")
			}
		case core.RelSatisfied:
			// The releaser's copy was captured by a round that has since
			// completed; satisfied with no new round. Must not fire while
			// a round is open (those RELs pend or requeue instead).
			if p.inRound {
				s.fail(e, "satisfied release during an open round")
			}
		}

	case "FINISHINV":
		// A capture completes at one SSMP: teardown arms invalidate the
		// copy and open a new incarnation; the single-writer arm retains
		// it; "gone" captures an SSMP that holds nothing.
		p := s.page(e)
		if p == nil {
			return
		}
		cl := s.client(e, p, e.Args[1])
		if cl == nil {
			return
		}
		switch e.Args[0] {
		case core.FinvAckTeardown:
			if cl.state != core.PRead {
				s.fail(e, "ACK teardown in state %v, spec wants READ", cl.state)
				return
			}
			cl.state = core.PInv
			cl.gen++
		case core.FinvDiffTeardown:
			if cl.state != core.PWrite {
				s.fail(e, "DIFF teardown in state %v, spec wants WRITE", cl.state)
				return
			}
			cl.state = core.PInv
			cl.gen++
		case core.FinvOneWRetain:
			if cl.state != core.PWrite {
				s.fail(e, "single-writer retention in state %v, spec wants WRITE", cl.state)
			}
		case core.FinvGone:
			if cl.state == core.PRead || cl.state == core.PWrite {
				s.fail(e, "copy reported gone but spec holds %v", cl.state)
			}
		default:
			s.fail(e, "arm %d outside the checked protocol", e.Args[0])
		}

	case "FINISHREL":
		// The round completes (arc 23): directories reset, with a
		// retained single writer re-registered.
		p := s.page(e)
		if p == nil {
			return
		}
		if !p.inRound {
			s.fail(e, "round completion without an open round")
			return
		}
		p.inRound = false
		p.readDir = 0
		p.writeDir = 0
		if keep := e.Args[0]; keep >= 0 {
			p.writeDir = 1 << uint(keep)
		}
	}
}

// Compare checks the implementation's snapshotted protocol state
// against the abstract machine: directories, round-in-progress, client
// page states, and incarnation counters must all agree. Called at every
// delivery boundary (handlers never span one, so implementation and
// spec are both between transitions).
func (s *Spec) Compare(snaps []core.PageSnap) error {
	if s.err != nil {
		return s.err
	}
	for _, sn := range snaps {
		i := int64(sn.Page) - s.base
		if i < 0 || i >= int64(len(s.pages)) {
			return fmt.Errorf("spec divergence: implementation touched page %d outside the checked region", sn.Page)
		}
		p := s.pages[i]
		if sn.ReadDir != p.readDir || sn.WriteDir != p.writeDir {
			return fmt.Errorf("spec divergence: page %d dirs R=%b W=%b, spec R=%b W=%b",
				sn.Page, sn.ReadDir, sn.WriteDir, p.readDir, p.writeDir)
		}
		if sn.InRound != p.inRound {
			return fmt.Errorf("spec divergence: page %d inRound=%v, spec %v", sn.Page, sn.InRound, p.inRound)
		}
		for _, cs := range sn.Clients {
			cl := p.clients[cs.SSMP]
			if cs.State != cl.state {
				return fmt.Errorf("spec divergence: page %d ssmp %d state %v, spec %v",
					sn.Page, cs.SSMP, cs.State, cl.state)
			}
			if cs.Gen != cl.gen {
				return fmt.Errorf("spec divergence: page %d ssmp %d incarnation %d, spec %d",
					sn.Page, cs.SSMP, cs.Gen, cl.gen)
			}
			if cs.HomeGen != cl.homeGens {
				return fmt.Errorf("spec divergence: page %d ssmp %d home gens %d, spec %d",
					sn.Page, cs.SSMP, cs.HomeGen, cl.homeGens)
			}
		}
	}
	return nil
}
