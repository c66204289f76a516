package core

import (
	"mgs/internal/sim"
	"mgs/internal/vm"
)

// Protocol messages.
//
// Everything the three engines say to one another is one of a small
// vocabulary of typed messages — Table 1's REQ, DATA, UPGRADE, UP_ACK,
// WNOTIFY, REL, INV/1WINV, PINV, PINV_ACK, ACK/DIFF/1WDATA and RACK,
// plus the extensions' own — carried by one record type. A record is
// taken from the System's free list, filled with the arguments its kind
// names, and is the msg.Handler of its delivery; Deliver puts it back on
// the free list before the handler body runs, so the replies the body
// sends reuse it. A page-table-lock continuation (ptlock.go) is the same
// record, queued on the lock instead of sent.

// msgKind names a message (or a lock continuation).
type msgKind uint8

const (
	mReq     msgKind = iota // RREQ/WREQ, Local Client → Server (arc 5): v, cp, p, write
	mData                   // RDAT/WDAT, Server → Local Client (arcs 6–7): sp, cp, p, write, ver (served), img
	mUpgrade                // UPGRADE, Local → Remote Client (arc 13): cp, p
	mUpAck                  // UP_ACK, Remote → Local Client (arc 7): cp, p
	mWNotify                // WNOTIFY, Remote Client → Server (arc 18): cp, gen
	mRel                    // REL, releaser → Server (arcs 8, 20–22): v, cond, round (captured)
	mInv                    // INV/1WINV, Server → Remote Client (arcs 14–16): sp, cp, inv, round
	mPInv                   // PINV, Remote Client → a mapping processor (arc 11): sp, cp, round
	mPInvAck                // PINV_ACK, back to the Remote Client (arcs 15–16): sp, cp, round
	mIReply                 // ACK/DIFF/1WDATA, Remote Client → Server (arcs 22–23): sp, reply, d, db, torn
	mRack                   // RACK, Server → releaser (arcs 9–10)

	// The extensions' messages, unlabeled: the model checker's Table 1
	// spec does not describe them.
	mLazyRel    // lazy release or acquire flush, → home: sp, cp, p, d, db, ver (fetched), gen (fetched, -1 for a flush)
	mLazyAck    // its acknowledgement: cp, p, ver (merged), gen (incarnation it revalidates, -1 for none)
	mRefresh    // update protocol, home → copy: sp, cp, img
	mRefreshAck // copy → home: sp, img (recycled at the round's last ack)

	// Page-table-lock continuations: handed the lock, never sent.
	kLockWake      // lockProc's waiter: p
	kInvLocked     // onInv's body: sp, cp, inv, round
	kRefreshLocked // onRefresh's body: sp, cp, img
)

const numSent = mRefreshAck + 1 // the kinds that are sent

// msgNames name the kinds that are sent. Those before mLazyRel, Table
// 1's, are also the model checker's choice-label kinds.
var msgNames = [numSent]string{
	mReq: "REQ", mData: "DATA", mUpgrade: "UPGRADE", mUpAck: "UPACK",
	mWNotify: "WNOTIFY", mRel: "REL", mInv: "INV", mPInv: "PINV",
	mPInvAck: "PINVACK", mIReply: "IREPLY", mRack: "RACK",
	mLazyRel: "LAZYREL", mLazyAck: "LAZYACK", mRefresh: "REFRESH", mRefreshAck: "REFRESHACK",
}

// message is one protocol message or lock continuation. Which fields a
// kind reads is listed at the kind.
type message struct {
	s        *System
	kind     msgKind
	v        vm.Page  // the page the message is about
	src, dst int      // endpoints, set by send
	at       sim.Time // a lock continuation's hand-off time

	sp    *serverPage
	cp    *clientPage
	p     *sim.Proc // the requester, releaser or waiter
	write bool
	inv   invKind // INV: plain, 1WINV or a retained writer's demotion
	cond  bool    // REL: the releaser's copy was already captured
	torn  bool    // IREPLY: the reply retires a copy incarnation
	ver   int64   // a home version
	gen   int64   // a copy incarnation
	round int64   // a release round
	reply invReply
	img   []byte
	d     Diff
	db    *DiffBuf
}

// newMsg takes a record off the free list, or allocates one, for a
// message of kind k about page v.
func (s *System) newMsg(k msgKind, v vm.Page) *message {
	var m *message
	if n := len(s.msgFree) - 1; n >= 0 {
		m, s.msgFree = s.msgFree[n], s.msgFree[:n]
	} else {
		m = &message{s: s}
	}
	m.kind, m.v = k, v
	return m
}

// send launches m from processor src at time at to processor dst: bytes
// on the wire, extra cycles of handler work at dst. aux is the choice
// label's kind-specific argument. Every message is booked here, and
// only here (counters.go).
func (s *System) send(m *message, src, dst int, at sim.Time, bytes int, extra sim.Time, aux int64) {
	m.src, m.dst = src, dst
	s.book(m)
	l := sim.Label{Page: int64(m.v), Src: src, Dst: dst, Aux: aux}
	if m.kind < mLazyRel {
		l.Kind = msgNames[m.kind]
	}
	s.net.SendTagged(l, src, dst, at, bytes, extra, m)
}

// Fire runs a lock continuation at its hand-off time (sim.Handler).
func (m *message) Fire() { m.Deliver(m.at) }

// Deliver runs the message's handler at time at (msg.Handler).
func (m *message) Deliver(at sim.Time) {
	s, a := m.s, *m
	*m = message{s: s} // drop what it referenced
	s.msgFree = append(s.msgFree, m)
	switch a.kind {
	case mReq:
		// The Server record is resolved here, on the home SSMP, not at
		// send time on the faulting SSMP.
		s.onRequest(s.server(a.v), a.cp, a.p, a.write, at)
	case mData:
		s.onData(a.sp, a.cp, a.p, a.write, a.ver, a.img, at)
	case mUpgrade:
		s.onUpgrade(a.cp, a.p, at)
	case mUpAck:
		s.onUpAck(a.cp, a.p, at)
	case mWNotify:
		// The Server registers the copy as a write copy unless the
		// notification is stale (see onUpgrade).
		sp, ssmp := s.server(a.v), a.cp.ssmp
		var stale bool
		if s.cfg.Variant.LazyRelease {
			stale = a.cp.gen != a.gen || a.cp.state != PWrite
		} else {
			stale = sp.rmtGens(ssmp) != a.gen
		}
		if stale && !s.acceptStaleWNotify {
			s.count(ctrWNotifyStale, 1)
			if s.Obs.Tracing() {
				s.emitPageArgs(at, -1, sp.page, "WNOTIFY", [3]int64{1, int64(ssmp), a.gen},
					"from ssmp %d STALE (gen %d != home gens %d)", ssmp, a.gen, sp.rmtGens(ssmp))
			}
			return
		}
		s.count(ctrWNotify, 1)
		if s.Obs.Tracing() {
			s.emitPageArgs(at, -1, sp.page, "WNOTIFY", [3]int64{0, int64(ssmp), a.gen},
				"from ssmp %d (state %d)", ssmp, sp.state)
		}
		sp.readDir.remove(ssmp)
		sp.writeDir.add(ssmp)
		if sp.state == sRead {
			sp.state = sWrite
		}
	case mRel:
		s.onRel(s.server(a.v), a.src, a.round, a.cond, at)
	case mInv:
		s.onInv(a.sp, a.cp, a.inv, a.round, at)
	case kInvLocked:
		s.onInvLocked(a.sp, a.cp, a.inv == inv1W, a.round, at)
	case mPInv:
		s.onPInv(a.sp, a.cp, a.round, a.src, a.dst, at)
	case mPInvAck:
		s.onPInvAck(a.sp, a.cp, a.round, at)
	case mIReply:
		s.onInvReply(a.sp, a.src, a.reply, a.d, a.db, a.torn, at)
	case mRack:
		s.procs[a.dst].Wake(at)
	case mLazyRel:
		s.onLazyRel(a.sp, a.cp, a.p, a.d, a.db, a.ver, a.gen, at)
	case mLazyAck:
		if a.cp.gen == a.gen {
			a.cp.version = a.ver
		}
		s.lazyRelDone(a.cp, at)
		a.p.Wake(at)
	case mRefresh:
		s.onRefresh(a.sp, a.cp, a.img, at)
	case kRefreshLocked:
		s.onRefreshLocked(a.sp, a.cp, a.img, at)
	case mRefreshAck:
		a.sp.refreshing--
		if a.sp.refreshing == 0 {
			// Every copy has applied the round's one image: recycle it.
			s.putPageBuf(a.img)
			s.finishRel(a.sp, at)
		}
	case kLockWake:
		a.p.Wake(at)
	}
}
