package core

import (
	"fmt"
	"math/bits"

	"mgs/internal/cache"
	"mgs/internal/mem"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
	"mgs/internal/vm"
)

// fault is the Local Client: it runs on the faulting processor and
// resolves a TLB fault on page v (Table 1 arcs 1–7). On return the TLB
// holds a sufficient mapping (the caller retries the access).
func (s *System) fault(p *sim.Proc, ss *ssmpState, v vm.Page, write bool) {
	// A fault is ordering-relevant: yield so every event and processor
	// segment at or before this clock settles first. Without this, a
	// processor that has run ahead can physically seize the page-table
	// lock "from the future", inverting virtual-time lock order and
	// charging enormous phantom waits to earlier faulters.
	p.Yield()
	// Attribute every cycle of this fault — entry, protocol waits, the
	// woken continuation — to the page being resolved.
	pk, pid := s.st.ProfSet(p.ID, obs.ObjPage, int64(v))
	defer s.st.ProfSet(p.ID, pk, pid)
	if s.Obs.Tracing() {
		// One Local Client engine span per fault, entry to resolution.
		t0 := p.Clock()
		defer func() {
			s.emitEngine(t0, p.ID, v, "LCLIENT", p.Clock()-t0, "proc %d write=%v", p.ID, write)
		}()
	}
	c := &s.cfg.Protocol
	s.spend(p, stats.MGS, c.FaultEntry)
	if write {
		s.count(ctrFaultWrite, 1)
	} else {
		s.count(ctrFaultRead, 1)
	}

	if s.null {
		s.nullFill(p, ss, v)
		return
	}

	cp := s.ensurePage(ss, v)
	s.lockProc(cp, p, stats.MGS)

	switch {
	case cp.state == PWrite || (cp.state == PRead && !write):
		// Arc 1 / arcs 3,4: mapping exists locally; fill the TLB.
		s.spend(p, stats.MGS, c.TLBFill)
		if s.Obs.Tracing() {
			s.emitPageArgs(p.Clock(), p.ID, v, "LOCALFILL", [3]int64{b2i(write), int64(cp.state), 0},
				"proc %d write=%v state=%v", p.ID, write, cp.state)
		}
		s.count(ctrTLBFillLocal, 1)
		priv := vm.Read
		if cp.state == PWrite && write {
			priv = vm.Write
		}
		s.insertTLB(ss, cp, p.ID, priv)
		if write {
			ss.duqs[s.within(p.ID)].add(v)
			// Touch the Server record only when this SSMP is the home
			// (home state is the home SSMP's state).
			if s.ssmpOf(s.space.HomeProc(v)) == cp.ssmp {
				s.server(v).homeDirty = true
			}
		}
		s.unlock(cp, p.Clock())

	case cp.state == PRead && write:
		// Arc 2: upgrade from read to write privilege.
		cp.tlbDir |= bit(s.within(p.ID))
		s.spend(p, stats.MGS, s.net.SendCost())
		m := s.newMsg(mUpgrade, v)
		m.cp, m.p = cp, p
		s.send(m, p.ID, cp.ownerProc, p.Clock(), c.CtrlBytes, c.UpWork, 0)
		s.parkCharge(p, stats.MGS) // woken by the UP_ACK handler
		// The UP_ACK handler filled the TLB, added the page to the
		// DUQ, and released the page-table lock.

	case cp.state == PInv:
		// Arc 5: no copy in this SSMP; request one from the Server.
		cp.state = PBusy
		home := s.space.HomeProc(v)
		if s.Obs.Tracing() {
			s.emitPageArgs(p.Clock(), p.ID, v, "REQSTART", [3]int64{b2i(write), 0, 0},
				"proc %d write=%v", p.ID, write)
		}
		s.spend(p, stats.MGS, s.net.SendCost())
		m := s.newMsg(mReq, v)
		m.cp, m.p, m.write = cp, p, write
		s.send(m, p.ID, home, p.Clock(), c.CtrlBytes, c.ReqWork, b2i(write))
		s.parkCharge(p, stats.MGS) // woken by the RDAT/WDAT handler

	default:
		panic(fmt.Sprintf("core: fault on page %d in state %v with lock held", v, cp.state))
	}
}

// nullFill is the C = P fill: plain software virtual memory with
// no coherence protocol. Every page maps the home frame directly.
func (s *System) nullFill(p *sim.Proc, ss *ssmpState, v vm.Page) {
	cp := s.ensurePage(ss, v)
	if cp.state == PInv {
		sp := s.server(v)
		cp.frame = sp.frame
		cp.ownerProc = sp.homeProc
		cp.dir = ss.newDir(s.within(cp.ownerProc))
		ss.domain.Register(cp.frame, cp.dir)
		cp.state = PWrite
	}
	s.spend(p, stats.User, s.cfg.Protocol.NullFill)
	s.count(ctrTLBFillNull, 1)
	s.insertTLB(ss, cp, p.ID, vm.Write)
}

// insertTLB fills proc's software TLB with a mapping of cp's page and
// keeps the tlbDir masks in step: cp gains the processor's bit, the
// page whose mapping the fill evicts (if any) loses it. Every fill goes
// through here, so a mapping tlbDir does not know — one no shootdown
// would reach — cannot exist.
func (s *System) insertTLB(ss *ssmpState, cp *clientPage, proc int, priv vm.Priv) {
	evicted, did := s.tlbs[proc].Insert(cp.page, priv)
	if did {
		if old := ss.pages.Get(evicted); old != nil {
			old.tlbDir &^= bit(s.within(proc))
		}
	}
	cp.tlbDir |= bit(s.within(proc))
}

// dropMappings is the one local shootdown loop: it invalidates each TLB
// mapping cp's SSMP holds of cp's page and clears tlbDir, returning how
// many processors lost one. The caller charges the shootdown.
func (s *System) dropMappings(cp *clientPage) int {
	n := 0
	for t := cp.tlbDir; t != 0; t &= t - 1 {
		s.tlbs[s.ssmpBase(cp.ssmp)+bits.TrailingZeros64(t)].Invalidate(cp.page)
		n++
	}
	cp.tlbDir = 0
	return n
}

// newDir returns an empty frame directory whose memory sits at
// within-SSMP processor home (a copy's permanent first-touch
// placement), reusing one a teardown retired, else carving one from
// the machine's store.
func (ss *ssmpState) newDir(home int) *cache.Dir {
	if d, ok := ss.dirs.Get(); ok {
		d.Reset(home)
		return d
	}
	return ss.domain.NewDir(home)
}

// retire returns a torn-down copy's frame and directory to the SSMP's
// pools. Only safe once no cache line is tagged with the frame.
func (ss *ssmpState) retire(f *mem.Frame, d *cache.Dir) {
	ss.frames.Recycle(f)
	ss.dirs.Put(d)
}

// onUpgrade is the Remote Client's UPGRADE handler (arc 13), running on
// the processor owning the SSMP's copy. The requester holds the
// page-table lock, so this handler runs lock-free.
func (s *System) onUpgrade(cp *clientPage, requester *sim.Proc, at sim.Time) {
	c := &s.cfg.Protocol
	o := cp.ownerProc
	homeProc := s.space.HomeProc(cp.page)
	isHome := cp.ssmp == s.ssmpOf(homeProc)
	if s.Obs.Tracing() {
		s.emitEngine(at, -1, cp.page, "RCLIENT", 0, "owner %d for proc %d", o, requester.ID)
		s.emitPageArgs(at, requester.ID, cp.page, "UPGRADE",
			[3]int64{b2i(cp.state == PRead), int64(cp.ssmp), b2i(isHome)},
			"ssmp %d applied=%v", cp.ssmp, cp.state == PRead)
	}
	if cp.state == PRead {
		if !isHome {
			at = s.net.Extend(o, at, sim.Time(s.cfg.PageSize)*c.TwinPerByte)
			cp.twin = s.newTwin(cp.frame)
			s.count(ctrTwin, 1)
		}
		cp.state = PWrite
		if isHome {
			// The home SSMP writes the home frame in place; no twin,
			// no WNOTIFY — only the retention veto. (This runs on the
			// home SSMP, so touching the Server record is fine.)
			s.server(cp.page).homeDirty = true
		} else {
			// WNOTIFY to the Server (arc 18). The notification names a
			// specific copy incarnation: if it arrives after a release
			// round has captured and torn that copy down (the INV can be
			// queued on the page-table lock behind this very upgrade, or
			// the WNOTIFY can simply be delayed in the network), applying
			// it would plant a phantom write_dir bit for an SSMP that
			// holds nothing. A later round would then send an INV that
			// queues behind a re-faulting processor whose request is
			// pended behind that same round — deadlock. Stale
			// notifications are dropped instead: under-registering a
			// write copy only forgoes the single-writer optimization (the
			// round's DIFF reply still carries the data), while
			// over-registering is unsound.
			//
			// Staleness is judged against home-side state: the Server
			// counts the teardown replies it has received from each SSMP
			// (rmt[].gens), and a notification naming incarnation g is
			// current only while gens == g. The home may briefly judge a
			// live copy stale (its teardown reply from the round that
			// captured it still in flight ahead of this WNOTIFY) — then
			// the copy is still registered in read_dir, the running
			// round invalidates it anyway, and only the single-writer
			// optimization is forgone. Under lazy release consistency
			// teardowns never report home, so that mode keeps the
			// incarnation check on the copy itself (a cross-SSMP read,
			// one of the lazy variant's departures from SSMP locality).
			m := s.newMsg(mWNotify, cp.page)
			m.cp, m.gen = cp, cp.gen
			s.send(m, o, homeProc, at, c.CtrlBytes, 0, cp.gen)
		}
	}
	// UP_ACK back to the requester (arc 7).
	m := s.newMsg(mUpAck, cp.page)
	m.cp, m.p = cp, requester
	s.send(m, o, requester.ID, at, c.CtrlBytes, 0, 0)
}

// onUpAck is the Local Client's UP_ACK handler (arc 7), running on the
// upgrading processor, which still holds the page-table lock.
func (s *System) onUpAck(cp *clientPage, requester *sim.Proc, at sim.Time) {
	ss := s.ssmps[cp.ssmp]
	ss.duqs[s.within(requester.ID)].add(cp.page)
	// The fill records the mapping in tlbDir again: a serve-time
	// shootdown of the home SSMP's mappings (serveData takes no
	// page-table lock) may have cleared the bit the fault set.
	s.insertTLB(ss, cp, requester.ID, vm.Write)
	s.unlock(cp, at)
	requester.Wake(at)
}
