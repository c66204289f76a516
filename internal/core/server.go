package core

import (
	"math/bits"

	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
	"mgs/internal/vm"
)

// SSMP locality. The machine being modelled shares no memory between
// SSMPs, so every handler in this file may touch only the state of the
// SSMP it runs on: Server records (serverPage) are the home SSMP's
// state, client records (clientPage) are their SSMP's state, and every
// cross-SSMP fact travels inside a message — the requester's page
// record rides the REQ, the capture round rides the REL, teardowns ride
// the invalidation replies. Fields that are immutable during a run
// (sp.page, sp.homeProc, cp.page, cp.ssmp) are the only state read
// across SSMPs: a page's home is fixed for all time. The lazy-release
// and update variants (variant.go) are extensions that depart from
// this.

// onRequest is the Server's RREQ/WREQ handler (arcs 17–19, 22), running
// on the page's home processor.
func (s *System) onRequest(sp *serverPage, cp *clientPage, p *sim.Proc, write bool, at sim.Time) {
	if s.Obs.Tracing() {
		s.emitEngine(at, -1, sp.page, "SERVER", 0, "home %d for proc %d write=%v", sp.homeProc, p.ID, write)
	}
	if sp.state == sRel {
		// Arc 22: queue behind the release in progress.
		sp.pendReq = append(sp.pendReq, pendingReq{proc: p.ID, write: write, cp: cp})
		s.count(ctrReqPended, 1)
		if s.Obs.Tracing() {
			s.emitPageArgs(at, p.ID, sp.page, "REQ", [3]int64{b2i(write), int64(cp.ssmp), 0},
				"from proc %d write=%v PENDED", p.ID, write)
		}
		return
	}
	s.serveData(sp, cp, p, write, at)
}

// serveData registers the requesting SSMP in the directory and ships the
// page (RDAT/WDAT). The home SSMP's own requests map the home frame
// directly, with no data transfer.
func (s *System) serveData(sp *serverPage, cp *clientPage, p *sim.Proc, write bool, at sim.Time) {
	c := &s.cfg.Protocol
	r := cp.ssmp
	homeSSMP := s.ssmpOf(sp.homeProc)
	bytes := c.CtrlBytes
	var img []byte
	if r != homeSSMP {
		// The home SSMP itself is never registered in the directories:
		// its "copy" is the home frame, kept consistent in place. Only
		// remote copies need invalidating at release.
		if write {
			sp.writeDir.add(r)
			sp.state = sWrite
		} else {
			sp.readDir.add(r)
		}
		// Record where the SSMP's Remote Client lives so invalidations
		// can be addressed without reading the remote SSMP. The first
		// serve's requester is the copy's permanent first-touch owner
		// (PBusy plus the page-table lock admit one outstanding request
		// per SSMP and page).
		rc := sp.rmtEnsure(r)
		rc.cp = cp
		if rc.owner < 0 {
			rc.owner = int32(p.ID)
		}
		bytes += s.cfg.PageSize
		if write {
			// Twins are made at request time (§3.1.1): the write grant
			// carries the twin image too.
			bytes += s.cfg.PageSize
		}
		// DMA requires global coherence: clean the home SSMP's copy
		// first if its processors have it cached (paper §4.2.4), and
		// shoot down the home SSMP's mappings so its processors' next
		// writes fault and re-enter their delayed update queues — from
		// now on there is a remote copy to keep consistent.
		if hcp := s.ssmps[homeSSMP].pages.Get(sp.page); hcp != nil && hcp.frame != nil && hcp.dir != nil {
			s.count(ctrCleanServe, 1)
			at = s.net.Extend(sp.homeProc, at, s.ssmps[homeSSMP].domain.CleanPage(hcp.frame, hcp.dir))
			at = s.homeShootdown(sp, hcp, ctrHomeShootdown, at)
		}
		// The DMA image is captured now, on the home SSMP: the copy
		// reflects the home version as of SERVE time, and a merge that
		// lands while the data is on the wire must leave it stale.
		img = s.newTwin(sp.frame)
	}
	if s.Obs.Tracing() {
		s.emitPageArgs(at, p.ID, sp.page, "SERVE", [3]int64{b2i(write), int64(r), b2i(r == homeSSMP)},
			"to proc %d (ssmp %d) write=%v dirs R=%b W=%b home=%d", p.ID, r, write, sp.readDir.mask64(), sp.writeDir.mask64(), sp.homeProc)
	}
	m := s.newMsg(mData, sp.page)
	m.sp, m.cp, m.p, m.write, m.ver, m.img = sp, cp, p, write, sp.version, img
	s.send(m, sp.homeProc, p.ID, at, bytes, 0, b2i(write))
}

// homeShootdown drops the home SSMP's write mappings of the page (hcp
// is that SSMP's own record of it), so its processors' next in-place
// writes fault back into their delayed update queues. It counts the
// dropped mappings on c, charges one PINV's work per mapping to the
// home processor from at, and returns when the shootdown is done: the
// earliest time a message that must follow it may leave.
func (s *System) homeShootdown(sp *serverPage, hcp *clientPage, c ctr, at sim.Time) sim.Time {
	if hcp.state != PWrite || hcp.tlbDir == 0 {
		return at
	}
	n := s.dropMappings(hcp)
	s.count(c, int64(n))
	return s.net.Extend(sp.homeProc, at, sim.Time(n)*s.cfg.Protocol.PinvWork)
}

// onData is the Local Client's RDAT/WDAT handler (arcs 6–7), running on
// the faulting processor, which still holds the page-table lock. img is
// the serve-time snapshot of the home frame (nil for the home SSMP's
// own requests, which map the home frame directly).
func (s *System) onData(sp *serverPage, cp *clientPage, p *sim.Proc, write bool, servedVer int64, img []byte, at sim.Time) {
	c := &s.cfg.Protocol
	ss := s.ssmps[cp.ssmp]
	isHome := cp.ssmp == s.ssmpOf(sp.homeProc)
	if isHome {
		cp.frame = sp.frame
	} else {
		f := ss.frames.Alloc()
		f.CopyFrom(img)
		s.pageBufs.Put(img)
		cp.frame = f
	}
	if cp.ownerProc < 0 {
		// First-touch placement; permanent (paper §3.1.2).
		cp.ownerProc = p.ID
	}
	cp.version = servedVer // home version at serve time (lazy mode)
	cp.dir = ss.newDir(s.within(cp.ownerProc))
	ss.domain.Register(cp.frame, cp.dir)
	at = s.net.Extend(p.ID, at, c.MapPage)
	if write {
		if !isHome {
			at = s.net.Extend(p.ID, at, sim.Time(s.cfg.PageSize)*c.TwinPerByte)
			cp.twin = s.newTwin(cp.frame)
			s.count(ctrTwin, 1)
		}
		cp.state = PWrite
		if isHome {
			sp.homeDirty = true
		}
		s.queue(p.ID, cp.page)
	} else {
		cp.state = PRead
	}
	at = s.net.Extend(p.ID, at, c.TLBFill)
	priv := vm.Read
	if write {
		priv = vm.Write
	}
	if s.Obs.Tracing() {
		s.emitPageArgs(at, p.ID, cp.page, "DATA", [3]int64{b2i(write), b2i(isHome), 0},
			"at proc %d write=%v", p.ID, write)
	}
	s.insertTLB(ss, cp, p.ID, priv)
	s.unlock(cp, at)
	p.Wake(at)
}

// ReleaseAll is the release operation (arcs 8–10): processor p drains
// its delayed update queue, sending one REL per dirty page and waiting
// for the RACK before the next. msync calls this at every lock release
// and barrier arrival; it is what makes the overall model eager release
// consistency.
//
// Whether the release still has data to collect is judged at the home,
// on REL arrival: the REL carries what the releaser knows SSMP-locally
// — whether its SSMP's copy survives (cond=false) and which release
// round last captured it (capRound) — and the Server combines that
// with its own round state (onRel). The earlier design read the
// Server's state from the releasing processor to skip satisfied
// releases without a message; a real DSSMP has no such cross-SSMP
// read, so a satisfied release costs one REL/RACK round trip instead
// of zero messages.
func (s *System) ReleaseAll(p *sim.Proc) {
	if s.null {
		return
	}
	c := &s.cfg.Protocol
	ss := s.ssmps[s.ssmpOf(p.ID)]
	cu := &s.cpus[p.ID]
	// Attribute each page's release work to that page; restore the
	// caller's context (the lock or barrier driving the release) after.
	pk, pid := s.st.ProfContext(p.ID)
	defer s.st.ProfSet(p.ID, pk, pid)
	if s.cfg.Variant.LazyRelease {
		s.releaseLazy(p, ss, cu)
		return
	}
	for {
		v, ok := cu.duq.pop(&cu.tlb)
		if !ok {
			return
		}
		s.st.ProfSet(p.ID, obs.ObjPage, int64(v))
		cp := ss.pages.Get(v)
		s.lockProc(cp, p, stats.MGS)
		// cond: the copy was invalidated since this processor dirtied
		// it, so the data already went home with that capture. The
		// release still synchronizes with the capturing round if it is
		// in flight (other copies are not consistent until the round
		// completes) — the home decides which case holds.
		cond := cp.state != PWrite
		capRound := cp.capturedRound
		if cond {
			if s.Obs.Tracing() {
				s.emitPageArgs(p.Clock(), p.ID, v, "RELCOND", [3]int64{}, "proc %d state=%v cap=%d", p.ID, cp.state, capRound)
			}
		}
		s.spend(p, stats.MGS, s.net.SendCost())
		m := s.newMsg(mRel, v)
		m.cond, m.round = cond, capRound
		s.send(m, p.ID, s.space.HomeProc(v), p.Clock(), c.CtrlBytes, c.RelWork, 0)
		// Deviation from Table 1 (which holds the lock to the RACK):
		// the release round sends an INV back to this SSMP, and that
		// handler takes this same lock — holding it here would
		// deadlock the protocol against itself.
		s.unlock(cp, p.Clock())
		s.parkCharge(p, stats.MGS) // woken by the RACK handler
	}
}

// onRel is the Server's REL handler (arcs 20–22). cond reports that the
// releaser's copy was already captured by some round; capRound is that
// round's id (-1 for re-queued releases re-entering after a round).
func (s *System) onRel(sp *serverPage, relProc int, capRound int64, cond bool, at sim.Time) {
	if sp.state == sRel {
		// Arc 22 folds a concurrent REL into the round in progress,
		// assuming the round's invalidations collect the releaser's
		// dirty data. That fails only for a copy this same round has
		// already captured and that was re-dirtied after the capture (a
		// retained single-writer copy — the refill is local, so the
		// re-dirty needs no round-blocked serve): folding such a REL in
		// would acknowledge data the round never saw. Those releases
		// re-run as a fresh round. A captured-and-torn-down copy
		// (cond) cannot re-dirty mid-round — its refetch pends behind
		// the round — so its data is covered and the REL folds in.
		if !cond && capRound == sp.round {
			sp.pendReRel = append(sp.pendReRel, relProc)
			if s.Obs.Tracing() {
				s.emitPageArgs(at, relProc, sp.page, "REL", [3]int64{RelRequeued, 0, 0},
					"from proc %d REQUEUED (copy captured round %d)", relProc, capRound)
			}
			return
		}
		if s.cfg.Variant.UpdateProtocol && sp.refreshDone && s.ssmpOf(relProc) == s.ssmpOf(sp.homeProc) {
			// The refresh image was snapshotted before this home-SSMP
			// release's in-place writes; folding it in would RACK a
			// release whose data the refreshes never carried.
			sp.pendReRel = append(sp.pendReRel, relProc)
			if s.Obs.Tracing() {
				s.emitPageArgs(at, relProc, sp.page, "REL", [3]int64{RelRequeuedHome, 0, 0},
					"from proc %d REQUEUED (post-image home release)", relProc)
			}
			return
		}
		sp.pendRel = append(sp.pendRel, relProc)
		if s.Obs.Tracing() {
			s.emitPageArgs(at, relProc, sp.page, "REL", [3]int64{RelPended, 0, 0},
				"from proc %d PENDED", relProc)
		}
		return
	}
	if cond {
		// The capturing round has already completed: the releaser's
		// data is merged and every copy served since reflects it. The
		// release is satisfied with no new round.
		s.count(ctrRelSat, 1)
		if s.Obs.Tracing() {
			s.emitPageArgs(at, relProc, sp.page, "REL", [3]int64{RelSatisfied, 0, 0},
				"from proc %d SATISFIED (captured round %d done)", relProc, capRound)
		}
		s.sendRack(sp, relProc, at)
		return
	}
	targets := s.roundTargets(sp, -1)
	if len(targets) == 0 {
		if s.Obs.Tracing() {
			s.emitPageArgs(at, relProc, sp.page, "REL", [3]int64{RelNoTargets, 0, 0},
				"from proc %d NOTARGETS", relProc)
		}
		s.sendRack(sp, relProc, at)
		return
	}
	if s.Obs.Tracing() {
		tmask := sp.readDir.mask64() | sp.writeDir.mask64()
		s.emitPageArgs(at, relProc, sp.page, "REL", [3]int64{RelRound, int64(tmask), int64(sp.writeDir.mask64())},
			"from proc %d -> round targets=%b writeDir=%b", relProc, tmask, sp.writeDir.mask64())
	}
	sp.state = sRel
	sp.round++
	sp.count = len(targets)
	sp.pendRel = append(sp.pendRel, relProc)
	sp.keepWriter = -1
	oneWriter := s.cfg.Variant.SingleWriter && !sp.homeDirty
	for _, r := range targets {
		t := invTarget{ssmp: r}
		if oneWriter && sp.writeDir.isOnly(r) {
			sp.keepWriter, t.inv = r, inv1W
		}
		sp.invQueue = append(sp.invQueue, t)
	}
	if s.cfg.Variant.SerialInv {
		s.dispatchInv(sp, at) // one at a time; replies pull the next
		return
	}
	for len(sp.invQueue) > 0 {
		s.dispatchInv(sp, at)
	}
}

// dispatchInv sends the INV/1WINV for the next queued target, addressed
// with the home's own record of the copy (rmt) — the remote SSMP's
// state is never read from here.
func (s *System) dispatchInv(sp *serverPage, at sim.Time) {
	t := sp.invQueue[0]
	sp.invQueue = append(sp.invQueue[:0], sp.invQueue[1:]...)
	rc := sp.rmtGet(t.ssmp)
	m := s.newMsg(mInv, sp.page)
	m.sp, m.cp, m.inv, m.round = sp, rc.cp, t.inv, sp.round
	s.send(m, sp.homeProc, int(rc.owner), at, s.cfg.Protocol.CtrlBytes, 0, b2i(t.inv == inv1W))
}

// onInv is the Remote Client's INV/1WINV handler (arcs 14–16), running
// on the processor owning the SSMP's copy. It takes the page-table lock
// (queuing if busy, per the paper's footnote 2), cleans the page, shoots
// down TLB mappings, and replies ACK, DIFF, or 1WDATA. round is the
// capturing round's id, recorded on the copy for its next release.
func (s *System) onInv(sp *serverPage, cp *clientPage, inv invKind, round int64, at sim.Time) {
	k := s.newMsg(kInvLocked, cp.page)
	k.sp, k.cp, k.inv, k.round = sp, cp, inv, round
	s.lockHandler(cp, k, at)
}

// onInvLocked is onInv's body, run holding the page-table lock.
func (s *System) onInvLocked(sp *serverPage, cp *clientPage, oneW bool, round int64, at sim.Time) {
	o := s.clientOwner(cp)
	if cp.state != PWrite && cp.state != PRead {
		// Copy already gone; acknowledge with nothing to merge.
		cp.capturedRound = round
		if s.Obs.Tracing() {
			s.emitPageArgs(at, -1, cp.page, "FINISHINV", [3]int64{FinvGone, int64(cp.ssmp), 0},
				"ssmp %d copy already gone (state=%v)", cp.ssmp, cp.state)
		}
		s.replyInv(sp, o, ackReply, nil, nil, false, at)
		s.unlock(cp, at)
		return
	}
	ss := s.ssmps[cp.ssmp]
	at = s.net.Extend(o, at, ss.domain.CleanPage(cp.frame, cp.dir))
	cp.invOneW = oneW
	cp.invCount = bits.OnesCount64(cp.tlbDir)
	if s.Obs.Tracing() {
		s.emitPageArgs(at, -1, cp.page, "INVSTART", [3]int64{int64(cp.ssmp), b2i(oneW), int64(cp.invCount)},
			"ssmp %d tlbDir=%b state=%v oneW=%v", cp.ssmp, cp.tlbDir, cp.state, oneW)
	}
	if cp.invCount == 0 {
		s.finishInv(sp, cp, round, at)
		return
	}
	c := &s.cfg.Protocol
	for t := cp.tlbDir; t != 0; t &= t - 1 {
		m := s.newMsg(mPInv, cp.page)
		m.sp, m.cp, m.round = sp, cp, round
		s.send(m, o, s.ssmpBase(cp.ssmp)+bits.TrailingZeros64(t), at, c.CtrlBytes, c.PinvWork, 0)
	}
}

// onPInv is a mapping processor's PINV handler (arc 11): drop the TLB
// entry, then acknowledge to the Remote Client on processor o. Unlike
// the table's arc 12, the processor's DUQ entry stays — see the note in
// finishInv.
func (s *System) onPInv(sp *serverPage, cp *clientPage, round int64, o, q int, at sim.Time) {
	s.cpus[q].tlb.Invalidate(cp.page)
	m := s.newMsg(mPInvAck, cp.page)
	m.sp, m.cp, m.round = sp, cp, round
	s.send(m, q, o, at, s.cfg.Protocol.CtrlBytes, 0, 0)
}

// onPInvAck is the Remote Client's PINV_ACK handler (arcs 15–16): the
// last acknowledgement finishes the invalidation.
func (s *System) onPInvAck(sp *serverPage, cp *clientPage, round int64, at sim.Time) {
	cp.invCount--
	if cp.invCount == 0 {
		s.finishInv(sp, cp, round, at)
	}
}

// ssmpBase returns the global processor ID of SSMP r's processor 0.
func (s *System) ssmpBase(r int) int { return r * s.cfg.C }

// clientOwner returns the processor the SSMP's Remote Client runs on:
// the copy's first-touch owner, or (before any placement) the SSMP's
// first processor. SSMP-local — home-side code uses rmt instead.
func (s *System) clientOwner(cp *clientPage) int {
	if cp.ownerProc >= 0 {
		return cp.ownerProc
	}
	return s.ssmpBase(cp.ssmp)
}

// finishInv completes an invalidation at the Remote Client once all
// PINV_ACKs are in (arc 16): it captures the page's modifications (diff
// or whole page), tears down or retains the copy, and replies to the
// Server. Called with the page-table lock held; releases it.
//
// The diff (or 1WDATA snapshot) is captured here, after the TLB
// shootdown, rather than at INV arrival as Table 1 writes it — capturing
// before the shootdown could lose a concurrent local write that the
// paper's microsecond-scale window makes improbable but a simulator
// makes routine.
func (s *System) finishInv(sp *serverPage, cp *clientPage, round int64, at sim.Time) {
	cp.capturedRound = round
	c := &s.cfg.Protocol
	o := s.clientOwner(cp)
	ss := s.ssmps[cp.ssmp]
	isHome := cp.ssmp == s.ssmpOf(sp.homeProc)
	var d Diff // the captured modifications, backed by db when non-nil
	var db *DiffBuf

	// Deliberate deviation from Table 1's arc 12: delayed-update-queue
	// entries are NOT removed by invalidations. A processor whose write
	// was collected by this round still pops the page at its own
	// release and, if the round is in flight, waits for it — otherwise
	// its release could complete before the captured data reaches the
	// home, and the next lock holder would read stale data.

	arm := FinvAckTeardown
	switch {
	case s.cfg.Variant.UpdateProtocol:
		arm = FinvUpdateCapture
	case cp.invOneW:
		arm = FinvOneWRetain
	case cp.state == PWrite:
		arm = FinvDiffTeardown
	}
	if s.Obs.Tracing() {
		s.emitPageArgs(at, -1, cp.page, "FINISHINV", [3]int64{arm, int64(cp.ssmp), b2i(isHome)},
			"ssmp %d state=%v oneW=%v", cp.ssmp, cp.state, cp.invOneW)
	}
	if s.cfg.Variant.UpdateProtocol {
		// Update protocol: capture the copy's modifications but keep
		// the copy itself; the round's refresh phase will overwrite it
		// with the merged image. The TLB shootdown has already
		// happened, so subsequent writes re-fault (cheap local fills)
		// and re-enter the delayed update queues.
		if cp.state == PWrite && !isHome {
			at = s.net.Extend(o, at, sim.Time(s.cfg.PageSize)*c.DiffPerByte)
			db, d = s.diffTwin(cp)
			s.retwin(cp)
			s.count(ctrUpdDiff, 1)
		}
		cp.tlbDir = 0
		s.replyInv(sp, o, diffReply, d, db, false, at)
		s.unlock(cp, at)
		return
	}

	switch {
	case cp.invOneW:
		// Single-writer optimization: no diff scan is charged and the
		// full page's bandwidth is paid (the paper's bandwidth-for-
		// computation trade), the twin is refreshed, and the copy stays
		// cached with state WRITE — the next local fault refills the
		// TLB cheaply. The home applies the transfer as a diff, not a
		// page overwrite: an upgrade's WNOTIFY can race the REL, making
		// a "single-writer" round also carry a concurrent diff that a
		// whole-page copy would clobber.
		at = s.net.Extend(o, at, sim.Time(s.cfg.PageSize)*c.TwinPerByte)
		if !isHome {
			db, d = s.diffTwin(cp)
		}
		s.retwin(cp)
		cp.tlbDir = 0
		s.replyInv(sp, o, oneWReply, d, db, false, at)

	case cp.state == PWrite:
		at = s.net.Extend(o, at, sim.Time(s.cfg.PageSize)*c.DiffPerByte)
		if isHome {
			// The home SSMP's writes are already in the home frame —
			// no diff travels, but they count as foreign data for the
			// retention decision below, exactly like a merged diff.
			sp.sawDiff = true
		} else {
			db, d = s.diffTwin(cp)
		}
		s.teardown(ss, cp, isHome, true)
		s.replyInv(sp, o, diffReply, d, db, true, at)

	default: // PRead
		s.teardown(ss, cp, isHome, true)
		s.replyInv(sp, o, ackReply, nil, nil, true, at)
	}
	s.unlock(cp, at)
}

// teardown frees the SSMP's copy of the page. The home SSMP's "copy" is
// the home frame itself, which survives; only the mapping goes. recycle
// returns a remote frame and its directory to the SSMP's pools —
// only safe after a CleanPage has purged every cached line of the frame
// (the eager invalidation path does; the lazy acquire path does not and
// passes false).
func (s *System) teardown(ss *ssmpState, cp *clientPage, isHome, recycle bool) {
	ss.domain.Unregister(cp.frame)
	if recycle && !isHome {
		ss.retire(cp.frame, cp.dir)
	}
	cp.frame = nil
	cp.dir = nil
	s.recycleTwin(cp)
	cp.tlbDir = 0
	cp.state = PInv
	cp.gen++ // a refetched copy is a new incarnation
}

// invReply is the kind of an invalidation reply.
type invReply uint8

const (
	ackReply  invReply = iota // ACK: read copy dropped
	diffReply                 // DIFF: twin/page diff attached
	oneWReply                 // 1WDATA: whole page's bandwidth, diff semantics
)

// replyInv sends the invalidation reply (ACK / DIFF / 1WDATA) to the
// Server. tornDown reports that this reply retires a copy incarnation
// (the Server counts them per SSMP for the WNOTIFY staleness check).
// db, when non-nil, is the pooled buffer backing d; the Server recycles
// it after the merge.
func (s *System) replyInv(sp *serverPage, from int, kind invReply, d Diff, db *DiffBuf, tornDown bool, at sim.Time) {
	c := &s.cfg.Protocol
	bytes := c.CtrlBytes
	switch kind {
	case diffReply:
		bytes += d.Bytes(c.DiffHdrByte)
	case oneWReply:
		if len(d) > 0 || from != sp.homeProc {
			bytes += s.cfg.PageSize
		}
	}
	// The label folds in the payload digest: two states that differ only
	// in the contents of an in-flight reply must not look identical to
	// the model checker's pending-event hash. Never computed on normal
	// runs (no chooser armed).
	aux := int64(kind) | b2i(tornDown)<<4
	if s.eng.Choosing() && len(d) > 0 {
		aux |= int64(d.Checksum()<<8) >> 8 << 8 // keep kind+teardown in the low byte
	}
	m := s.newMsg(mIReply, sp.page)
	m.sp, m.reply, m.d, m.db, m.torn = sp, kind, d, db, tornDown
	s.send(m, from, sp.homeProc, at, bytes, 0, aux)
}

// onInvReply is the Server's ACK/DIFF/1WDATA handler (arcs 22–23): merge
// incoming modifications into the home frame; when the last reply
// arrives, finish the release round. from is the replying Remote Client's
// processor.
func (s *System) onInvReply(sp *serverPage, from int, kind invReply, d Diff, db *DiffBuf, tornDown bool, at sim.Time) {
	c := &s.cfg.Protocol
	if s.Obs.Tracing() {
		s.emitPageArgs(at, -1, sp.page, "INVREPLY", [3]int64{int64(kind), int64(s.ssmpOf(from)), b2i(tornDown)},
			"kind=%d diff=%d torn=%v count->%d", kind, len(d), tornDown, sp.count-1)
	}
	if tornDown {
		// One more incarnation of this SSMP's copy is fully retired;
		// WNOTIFYs naming earlier incarnations are stale from now on.
		sp.rmtGet(s.ssmpOf(from)).gens++
	}
	if kind == ackReply && sp.keepWriter >= 0 && s.ssmpOf(from) == sp.keepWriter {
		// The supposedly retained single writer reports its copy already
		// gone: its write_dir bit was a phantom. That happens when a
		// WNOTIFY is delayed past the release round that captured the
		// copy — the late notification re-registers an SSMP that holds
		// nothing. Retention would then write the phantom back into
		// write_dir at finishRel, where the single-writer test would
		// retain it again on every subsequent round, forever. Drop the
		// retention; the round ends with clean directories.
		sp.keepWriter = -1
		s.count(ctrOneWPhantom, 1)
	}
	if len(d) > 0 {
		// A 1WDATA transfer occupies the home for the full page; a
		// DIFF only for its changed bytes.
		mergeBytes := d.Bytes(0)
		if kind == oneWReply {
			mergeBytes = s.cfg.PageSize
		}
		at = s.net.Extend(sp.homeProc, at,
			c.MergeWork+sim.Time(mergeBytes)*c.ApplyPerByte)
		d.Apply(sp.frame.Data)
		if kind == oneWReply {
			s.count(ctrMergePage, 1)
		} else {
			s.count(ctrMergeDiff, 1)
			sp.sawDiff = true
		}
	}
	if db != nil {
		s.diffBufs.Put(db)
	}
	sp.count--
	if len(sp.invQueue) > 0 {
		s.dispatchInv(sp, at)
		return
	}
	if sp.count == 0 {
		s.finishRel(sp, at)
	}
}

// finishRel completes a release round (arc 23): reset the directories
// (re-registering a retained single-writer copy — the printed table
// drops it, which would strand a stale copy), RACK every queued
// releaser, and serve queued replication requests.
func (s *System) finishRel(sp *serverPage, at sim.Time) {
	if s.cfg.Variant.UpdateProtocol {
		targets := s.roundTargets(sp, s.ssmpOf(sp.homeProc))
		if !sp.refreshDone && len(targets) != 0 {
			sp.refreshDone = true
			// Refresh phase: push the merged image to every copy; the
			// round completes only when all have acknowledged, so no
			// post-release lock grant can read a stale copy.
			sp.refreshing = len(targets)
			img := s.newTwin(sp.frame)
			for _, r := range targets {
				s.sendRefresh(sp, r, img, at)
			}
			return
		}
		sp.refreshDone = false
		sp.keepWriter = -1
		sp.sawDiff = false
		sp.homeDirty = false
		// Unlike invalidate mode, copies persist and are never
		// re-served, so the serve-time shootdown of the home SSMP's
		// write mappings never recurs. Re-arm it here: the next home
		// in-place write must fault back into a delayed update queue,
		// or the persistent remote copies would go permanently stale.
		// The round is answered once the shootdown is done.
		if hcp := s.ssmps[s.ssmpOf(sp.homeProc)].pages.Get(sp.page); hcp != nil {
			at = s.homeShootdown(sp, hcp, ctrUpdHomeShootdown, at)
		}
		// Directories persist: the copies are still out there, valid.
		if !sp.writeDir.empty() {
			sp.state = sWrite
		} else {
			sp.state = sRead
		}
		s.answerRound(sp, at)
		return
	}
	if sp.keepWriter >= 0 && (sp.sawDiff || sp.homeDirty) && sp.keepWriter != s.ssmpOf(sp.homeProc) {
		// Retention is only sound if nothing but the keeper's own data
		// merged this round. A racing upgrade's diff or the home
		// SSMP's in-place stores make the retained copy stale; demote
		// it with a follow-up INV before the round completes (and thus
		// before any RACK — so no post-release lock grant can read the
		// stale copy).
		if s.Obs.Tracing() {
			s.emitPageArgs(at, -1, sp.page, "DEMOTE", [3]int64{int64(sp.keepWriter), 0, 0},
				"retained ssmp %d", sp.keepWriter)
		}
		sp.invQueue = append(sp.invQueue, invTarget{ssmp: sp.keepWriter, inv: invDemote})
		sp.keepWriter = -1
		sp.sawDiff = false
		sp.count = 1
		s.dispatchInv(sp, at)
		return
	}
	sp.sawDiff = false
	sp.homeDirty = false
	if s.Obs.Tracing() {
		s.emitPageArgs(at, -1, sp.page, "FINISHREL",
			[3]int64{int64(sp.keepWriter), int64(len(sp.pendRel)), int64(len(sp.pendReq))},
			"keep=%d pendRel=%v pendReq=%v", sp.keepWriter, sp.pendRel, sp.pendReq)
	}
	sp.readDir.clear()
	sp.writeDir.clear()
	sp.state = sRead
	if sp.keepWriter >= 0 {
		sp.writeDir.add(sp.keepWriter)
		sp.state = sWrite
		sp.keepWriter = -1
	}
	s.answerRound(sp, at)
}

// answerRound ends a release round: RACK every releaser it collected,
// serve the requests queued behind it, and re-run the releases that
// arrived after their SSMP's capture as a fresh round (the first re-REL
// opens it; the rest fold in safely, since every capture of the new
// round postdates their writes). The queues keep their storage. onRel
// can queue a release again, so the last loop runs over the entries
// present at entry and keeps what it appends for the next round.
func (s *System) answerRound(sp *serverPage, at sim.Time) {
	for _, rp := range sp.pendRel {
		s.sendRack(sp, rp, at)
	}
	sp.pendRel = sp.pendRel[:0]
	for _, rq := range sp.pendReq {
		s.serveData(sp, rq.cp, s.procs[rq.proc], rq.write, at)
	}
	sp.pendReq = sp.pendReq[:0]
	n := len(sp.pendReRel)
	for i := 0; i < n; i++ {
		s.count(ctrRelRequeued, 1)
		s.onRel(sp, sp.pendReRel[i], -1, false, at)
	}
	sp.pendReRel = append(sp.pendReRel[:0], sp.pendReRel[n:]...)
}

// sendRefresh pushes the merged page image to one copy (update
// protocol); the copy replays its own post-capture writes on top and
// acknowledges.
func (s *System) sendRefresh(sp *serverPage, r int, img []byte, at sim.Time) {
	rc := sp.rmtGet(r)
	m := s.newMsg(mRefresh, sp.page)
	m.sp, m.cp, m.img = sp, rc.cp, img
	s.send(m, sp.homeProc, int(rc.owner), at, s.cfg.PageSize+s.cfg.Protocol.CtrlBytes, 0, 0)
}

// onRefresh is a copy's refresh handler (update protocol). Like an INV
// it takes the page-table lock, queuing if busy.
func (s *System) onRefresh(sp *serverPage, cp *clientPage, img []byte, at sim.Time) {
	k := s.newMsg(kRefreshLocked, cp.page)
	k.sp, k.cp, k.img = sp, cp, img
	s.lockHandler(cp, k, at)
}

// onRefreshLocked is onRefresh's body, run holding the page-table lock:
// overwrite the copy with the merged image, replay the copy's own
// post-capture writes on top, and acknowledge.
func (s *System) onRefreshLocked(sp *serverPage, cp *clientPage, img []byte, at sim.Time) {
	if cp.frame != nil && (cp.state == PWrite || cp.state == PRead) {
		c := &s.cfg.Protocol
		at = s.net.Extend(s.clientOwner(cp), at,
			c.MergeWork+sim.Time(s.cfg.PageSize)*c.ApplyPerByte)
		if cp.state == PWrite && cp.twin != nil {
			db, local := s.diffTwin(cp)
			cp.frame.CopyFrom(img)
			local.Apply(cp.frame.Data)
			copy(cp.twin, img)
			s.diffBufs.Put(db)
		} else {
			cp.frame.CopyFrom(img)
		}
	}
	s.unlock(cp, at)
	m := s.newMsg(mRefreshAck, sp.page)
	m.sp, m.img = sp, img
	s.send(m, s.clientOwner(cp), sp.homeProc, at, s.cfg.Protocol.CtrlBytes, 0, 0)
}

// sendRack acknowledges a release to the waiting processor (arc 9–10).
func (s *System) sendRack(sp *serverPage, relProc int, at sim.Time) {
	s.send(s.newMsg(mRack, sp.page), sp.homeProc, relProc, at, s.cfg.Protocol.CtrlBytes, 0, 0)
}
