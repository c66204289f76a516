package core

import (
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
	"mgs/internal/vm"
)

// Lazy release consistency (extension).
//
// The paper's §6 contrasts MGS's eager protocol — every release
// invalidates every copy before completing — with the lazy release
// consistency of systems like TreadMarks, which delay coherence to
// acquire time. This file implements that other side of the comparison
// behind Variant.LazyRelease:
//
//   - A release sends only the releasing SSMP's own diff to the home,
//     which merges it and advances the page's version. No invalidation
//     round runs; other SSMPs' copies go stale in place. The releaser's
//     copy demotes to a read copy (a later write upgrades and re-twins).
//
//   - An acquire — a lock grant or a barrier exit — validates the
//     acquiring SSMP's copies against the home versions. A stale dirty
//     copy flushes its diff home first (preserving its unreleased
//     writes), then every stale copy is torn down so the next touch
//     refetches the merged image.
//
// Version comparison stands in for TreadMarks' vector-timestamped write
// notices: real LRC piggybacks "these pages changed" intervals on the
// lock token, and the token's transfer already orders the notice ahead
// of the acquirer's next access. The simulator reads the version
// directly and charges only the per-stale-page processing, which
// idealizes the notice transport (its payload rides the existing token
// and barrier-release messages) but preserves what the experiment
// measures: where the coherence work moves, and how much of it the
// laziness avoids.
//
// Data-race-free programs compute identical results under both
// protocols (the conformance test in internal/exp enforces this
// bit-for-bit); racy reads may observe older values than eager MGS
// would show, which release consistency permits.

// releaseLazy drains processor p's delayed update queue under lazy
// release consistency: one diff-carrying REL per dirty page, no
// invalidation round. Called by ReleaseAll.
func (s *System) releaseLazy(p *sim.Proc, ss *ssmpState, cu *cpu) {
	c := &s.cfg.Protocol
	for {
		v, ok := cu.duq.pop(&cu.tlb)
		if !ok {
			return
		}
		s.st.ProfSet(p.ID, obs.ObjPage, int64(v))
		cp := ss.pages.Get(v)
		s.lockProc(cp, p, stats.MGS)
		if cp.state != PWrite {
			// Already flushed — by an acquire-time sync or by another
			// local processor's release of the same page. If that flush
			// is still in flight the release must wait for its merge to
			// reach the home (the lazy counterpart of eager RELWAIT):
			// completing early would hand a lock over before the
			// captured data is visible to the next acquirer.
			if cp.relInFlight > 0 {
				if s.Obs.Tracing() {
					s.emitPageArgs(p.Clock(), p.ID, v, "LRELWAIT", [3]int64{}, "proc %d inflight=%d", p.ID, cp.relInFlight)
				}
				s.count(ctrLRelWait, 1)
				cp.relWaiters = append(cp.relWaiters, p)
				s.parkCharge(p, stats.MGS)
			} else if s.Obs.Tracing() {
				s.emitPageArgs(p.Clock(), p.ID, v, "LRELSKIP", [3]int64{}, "proc %d state=%v", p.ID, cp.state)
			}
			s.unlock(cp, p.Clock())
			continue
		}
		sp := s.server(v)
		isHome := cp.ssmp == s.ssmpOf(sp.homeProc)
		var diff Diff
		var db *DiffBuf
		bytes := c.CtrlBytes
		if !isHome {
			s.spend(p, stats.MGS, sim.Time(s.cfg.PageSize)*c.DiffPerByte)
			db, diff = s.diffTwin(cp)
			bytes += diff.Bytes(c.DiffHdrByte)
			// Demote to a read copy: reads keep hitting the local frame,
			// the next write upgrades and re-twins.
			s.recycleTwin(cp)
			cp.state = PRead
		}
		// Later local writes must fault back into a delayed update
		// queue. In-place home writes ship nothing, but the version
		// still advances.
		s.shootLocal(cp, p)
		fetchVer, fetchGen := cp.version, cp.gen
		if s.Obs.Tracing() {
			s.emitPageArgs(p.Clock(), p.ID, v, "LREL", [3]int64{}, "proc %d home=%v diff=%d ver=%d", p.ID, isHome, len(diff), sp.version)
		}
		s.spend(p, stats.MGS, s.net.SendCost())
		cp.relInFlight++
		m := s.newMsg(mLazyRel, v)
		m.sp, m.cp, m.p, m.d, m.db, m.ver, m.gen = sp, cp, p, diff, db, fetchVer, fetchGen
		s.send(m, p.ID, sp.homeProc, p.Clock(), bytes, c.RelWork, 0)
		s.unlock(cp, p.Clock())
		s.parkCharge(p, stats.MGS) // woken by the home's acknowledgement
	}
}

// onLazyRel is the home's handler for a lazy release or an acquire
// flush: merge the diff (possibly empty), advance the version, and
// acknowledge to processor p. fetchVer and fetchGen are the version and
// incarnation of the releasing copy when it was fetched or last
// validated; a flush passes fetchGen -1, for a copy already torn down.
func (s *System) onLazyRel(sp *serverPage, cp *clientPage, p *sim.Proc, d Diff, db *DiffBuf, fetchVer, fetchGen int64, at sim.Time) {
	c := &s.cfg.Protocol
	if len(d) > 0 {
		at = s.net.Extend(sp.homeProc, at, c.MergeWork+sim.Time(d.Bytes(0))*c.ApplyPerByte)
		d.Apply(sp.frame.Data)
		s.count(ctrMergeDiff, 1)
	}
	if db != nil {
		s.diffBufs.Put(db)
	}
	sp.homeDirty = false
	sp.version++
	ack := s.newMsg(mLazyAck, sp.page)
	ack.cp, ack.p, ack.ver, ack.gen = cp, p, sp.version, -1
	if sp.version == fetchVer+1 {
		// Only our own merge happened since the copy was fetched or last
		// validated: if it is still the same incarnation when the ack
		// lands, it equals the merged home image and stays fresh. (A
		// torn-down-and-refetched copy — gen moved — may hold a
		// jitter-reordered pre-merge image and must stay stale.)
		ack.gen = fetchGen
	}
	s.send(ack, sp.homeProc, p.ID, at, c.CtrlBytes, 0, 0)
}

// lazyRelDone retires one in-flight REL of cp's data and wakes the
// releases that were waiting on it.
func (s *System) lazyRelDone(cp *clientPage, at sim.Time) {
	cp.relInFlight--
	if cp.relInFlight > 0 {
		return
	}
	for _, q := range cp.relWaiters {
		q.Wake(at)
	}
	cp.relWaiters = cp.relWaiters[:0]
}

// shootLocal drops every local TLB mapping of cp's page, charging the
// per-processor shootdown work to p (local inter-processor interrupts).
func (s *System) shootLocal(cp *clientPage, p *sim.Proc) {
	if n := s.dropMappings(cp); n > 0 {
		s.spend(p, stats.MGS, sim.Time(n)*s.cfg.Protocol.PinvWork)
	}
}

// AcquireSync brings the acquiring processor's SSMP up to date with the
// home versions (lazy release consistency; a no-op otherwise). msync
// calls it at every lock grant and barrier exit. Stale dirty copies
// flush their diff home first; every stale copy is then torn down so
// the next touch refetches the merged image.
func (s *System) AcquireSync(p *sim.Proc) {
	if !s.cfg.Variant.LazyRelease || s.null {
		return
	}
	c := &s.cfg.Protocol
	ss := s.ssmps[s.ssmpOf(p.ID)]
	// The page-table scan is in ascending page order — deterministic.
	var pages []vm.Page
	ss.pages.Each(func(v vm.Page, cp *clientPage) {
		switch cp.state {
		case PBusy:
			// A fetch in flight can carry a pre-merge image: serialize
			// behind it (its fault holds the page-table lock until the
			// data lands) and re-check the served version.
			pages = append(pages, v)
		case PRead, PWrite:
			sp := s.serverIfExists(v)
			if sp == nil || cp.ssmp == s.ssmpOf(sp.homeProc) || cp.version >= sp.version {
				return // home copies live in the home frame; fresh copies stay
			}
			pages = append(pages, v)
		}
	})
	for _, v := range pages {
		cp := ss.pages.Get(v)
		sp := s.server(v)
		if cp.ssmp == s.ssmpOf(sp.homeProc) {
			continue
		}
		s.lockProc(cp, p, stats.MGS)
		// Re-check under the lock: a queued handler may have moved us.
		if (cp.state != PRead && cp.state != PWrite) || cp.version >= sp.version {
			s.unlock(cp, p.Clock())
			continue
		}
		s.count(ctrAcqStale, 1)
		if cp.state == PWrite {
			// Flush the copy's unreleased writes before dropping it. The
			// page-table lock is held across the merge so a concurrent
			// local fault refetches only the post-merge image (within-
			// SSMP ordering survives the teardown).
			s.spend(p, stats.MGS, sim.Time(s.cfg.PageSize)*c.DiffPerByte)
			db, diff := s.diffTwin(cp)
			s.shootLocal(cp, p)
			// No CleanPage ran here: the frame may still have cached
			// lines, so it must not be recycled (a recycled frame's ID
			// reuse would let those lines alias the new page).
			s.teardown(ss, cp, false, false)
			if s.Obs.Tracing() {
				s.emitPageArgs(p.Clock(), p.ID, v, "ACQFLUSH", [3]int64{}, "proc %d diff=%d", p.ID, len(diff))
			}
			s.spend(p, stats.MGS, s.net.SendCost())
			cp.relInFlight++
			m := s.newMsg(mLazyRel, v)
			m.sp, m.cp, m.p, m.d, m.db, m.gen = sp, cp, p, diff, db, -1
			s.send(m, p.ID, sp.homeProc, p.Clock(), c.CtrlBytes+diff.Bytes(c.DiffHdrByte), c.RelWork, 0)
			s.parkCharge(p, stats.MGS)
			s.unlock(cp, p.Clock())
			continue
		}
		// Clean stale copy: the write notice alone kills it, no
		// communication needed (TreadMarks' acquire-side invalidation).
		s.count(ctrAcqInval, 1)
		if s.Obs.Tracing() {
			s.emitPageArgs(p.Clock(), p.ID, v, "ACQINVAL", [3]int64{}, "proc %d ver=%d<%d", p.ID, cp.version, sp.version)
		}
		s.shootLocal(cp, p)
		s.teardown(ss, cp, false, false)
		s.unlock(cp, p.Clock())
	}
}
