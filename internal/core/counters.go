package core

import "fmt"

// Protocol counters are the lines of Result.Counters and `mgs run
// -counters`, each resolved on its first count, so a run that never
// takes an arc prints no zero line for it. Message counters are booked
// as messages leave (book, sendNames); a decision counter (ctr) counts
// what no one message records, with s.count where the protocol decides.

// ctr names one decision counter. Each comment names the Table 1 arc
// or the event that increments the counter.
type ctr uint8

const (
	ctrFaultRead        ctr = iota // fault.read: a read TLB fault enters the Local Client (arcs 1–7)
	ctrFaultWrite                  // fault.write: a write TLB fault enters the Local Client (arcs 1–7)
	ctrTLBFillLocal                // tlbfill.local: arcs 1, 3–4, the SSMP already maps the page and the Local Client fills the TLB
	ctrTLBFillNull                 // tlbfill.null: a fill with the protocol disabled (Config.Disabled), no Table 1 arc
	ctrTwin                        // twin: a twin is made, at a WDAT on a non-home SSMP (arcs 6–7) or an applied UPGRADE (arc 13)
	ctrReqPended                   // req.pended: arc 22, an RREQ/WREQ that arrives during a release round queues behind it
	ctrCleanServe                  // clean.serve: a serve to a non-home SSMP first cleans the home SSMP's cached copy (§4.2.4)
	ctrHomeShootdown               // home.shootdown: adds the home SSMP's TLB mappings that such a serve drops
	ctrWNotify                     // wnotify: arc 18, the Server registers a WNOTIFY in write_dir
	ctrWNotifyStale                // wnotify.stale: arc 18, a WNOTIFY naming a copy a release round already retired is dropped
	ctrRelSat                      // rel.sat: arcs 20–22, a REL whose copy a completed round already captured is RACKed at once
	ctrRelRequeued                 // rel.requeued: a REL that arrived after its copy's capture re-runs as a fresh round
	ctrDiffBytes                   // diffbytes: adds the changed bytes of each DIFF counted by diff (booked with it)
	ctrOneWPhantom                 // 1wphantom: a retained single writer's ACK shows its write_dir bit was a phantom; retention is dropped
	ctrMergeDiff                   // merge.diff: arc 23, the home merges a DIFF (or a lazy release's diff) into the home frame
	ctrMergePage                   // merge.page: arc 23, the home merges a 1WDATA transfer
	ctrUpdDiff                     // upd.diff: update protocol, a round captures a WRITE copy's diff and keeps the copy
	ctrUpdHomeShootdown            // upd.homeshootdown: update protocol, adds the home SSMP's TLB mappings dropped at round end
	ctrLRelWait                    // lrel.wait: lazy release, the page's flush is still in flight and the release waits for its merge
	ctrAcqStale                    // acq.stale: lazy acquire, a local copy older than the home version is found
	ctrAcqInval                    // acq.inval: lazy acquire, a stale READ copy is dropped with no message
	numCtr
)

var ctrNames = [numCtr]string{
	ctrFaultRead:        "fault.read",
	ctrFaultWrite:       "fault.write",
	ctrTLBFillLocal:     "tlbfill.local",
	ctrTLBFillNull:      "tlbfill.null",
	ctrTwin:             "twin",
	ctrReqPended:        "req.pended",
	ctrCleanServe:       "clean.serve",
	ctrHomeShootdown:    "home.shootdown",
	ctrWNotify:          "wnotify",
	ctrWNotifyStale:     "wnotify.stale",
	ctrRelSat:           "rel.sat",
	ctrRelRequeued:      "rel.requeued",
	ctrDiffBytes:        "diffbytes",
	ctrOneWPhantom:      "1wphantom",
	ctrMergeDiff:        "merge.diff",
	ctrMergePage:        "merge.page",
	ctrUpdDiff:          "upd.diff",
	ctrUpdHomeShootdown: "upd.homeshootdown",
	ctrLRelWait:         "lrel.wait",
	ctrAcqStale:         "acq.stale",
	ctrAcqInval:         "acq.inval",
}

// count adds delta to counter c.
func (s *System) count(c ctr, delta int64) { s.handle(&s.ctrs[c], ctrNames[c]).Add(delta) }

// sendNames names the message counter of each (kind, key) pair, one
// pair per counter; "" books none. book reads the key off the message.
var sendNames = [numSent][4]string{
	mReq:     {"rreq", "wreq"},              // arc 5, a fault with no copy in the SSMP; key: write
	mData:    {"rdat", "wdat", "rdat.home"}, // arcs 17–19; key: write, or 2 at the home SSMP, where no data travels
	mUpgrade: {"upgrade"},                   // arc 2, a write fault on a READ copy
	mRel:     {"rel"},                       // arc 8, one REL per dirty page
	// Arc 14; key: invKind (1wdemote demotes a retained single writer).
	// Each INV is answered once, so when a run ends inv + 1winv +
	// 1wdemote = ackinv + diff + 1wdata, but for the replies that book
	// nothing: an untorn ACK (the INV found its copy gone, as at a
	// phantom write_dir bit) and the update protocol's untorn DIFFs.
	mInv:  {invPlain: "inv", inv1W: "1winv", invDemote: "1wdemote"},
	mPInv: {"pinv"}, // arc 11, to one processor that maps the page
	// Arcs 22–23, a reply retiring a copy; key: reply kind, 3 for an
	// untorn ACK or DIFF.
	// diff also counts the home SSMP's teardown, which ships no diff (`mgs
	// run -app jacobi -small -p 8 -c 1 -counters`: diff=21, diffbytes=0).
	mIReply:  {ackReply: "ackinv", diffReply: "diff", oneWReply: "1wdata"},
	mRack:    {"rack"},                           // arcs 9–10
	mLazyRel: {"lrel", "lrel.home", "acq.flush"}, // lazy release, one at the home SSMP, an acquire's flush (gen -1)
	mRefresh: {"upd.refresh"},                    // update protocol, the merged image to one copy
}

// book counts m as send launches it: its kind's send count, and the
// message counter of the key read off its fields. home: source and
// destination share an SSMP.
func (s *System) book(m *message) {
	s.sent[m.kind]++
	k := 0
	switch home := s.ssmpOf(m.src) == s.ssmpOf(m.dst); m.kind {
	case mReq:
		k = int(b2i(m.write))
	case mData:
		if k = int(b2i(m.write)); home {
			k = 2
		}
	case mInv:
		k = int(m.inv)
	case mIReply:
		if k = int(m.reply); !m.torn && m.reply != oneWReply {
			k = 3
		}
	case mLazyRel:
		if k = int(b2i(home)); m.gen == -1 {
			k = 2
		}
	}
	if name := sendNames[m.kind][k]; name != "" {
		s.handle(&s.sentCtrs[m.kind][k], name).Add(1)
	}
	if m.kind == mIReply && k == int(diffReply) {
		s.count(ctrDiffBytes, int64(m.d.Bytes(0)))
	}
}

// balance pairs each request kind with its one reply kind (Table 1's
// and the extensions'). Nothing answers a WNOTIFY.
var balance = [...][2]msgKind{
	{mReq, mData}, {mUpgrade, mUpAck}, {mRel, mRack}, {mInv, mIReply},
	{mPInv, mPInvAck}, {mRefresh, mRefreshAck}, {mLazyRel, mLazyAck},
}

// Quiescent reports whether every request sent has had its reply sent,
// once a run has ended (as msync.System.Quiescent does for sync), naming
// both kinds of the first pair that does not balance. Retransmits never
// reach the counts: the transport resends below send.
func (s *System) Quiescent() error {
	for _, b := range balance {
		if n, r := s.sent[b[0]], s.sent[b[1]]; n != r {
			return fmt.Errorf("core: %d %s sent against %d %s: the request/reply pair does not balance",
				n, msgNames[b[0]], r, msgNames[b[1]])
		}
	}
	return nil
}
