package core

// ctr names one protocol event counter: a line of Result.Counters and
// of `mgs run -counters`. The System holds one *obs.Counter per name in
// ctrs and resolves it on the name's first count, so a counter is
// registered exactly when a by-name Add would have registered it and a
// run that never takes an arc prints no zero line for it. Each comment
// names the Table 1 arc or the event that increments the counter.
type ctr uint8

const (
	ctrFaultRead     ctr = iota // fault.read: a read TLB fault enters the Local Client (arcs 1–7)
	ctrFaultWrite               // fault.write: a write TLB fault enters the Local Client (arcs 1–7)
	ctrTLBFillLocal             // tlbfill.local: arcs 1, 3–4, the SSMP already maps the page and the Local Client fills the TLB
	ctrTLBFillNull              // tlbfill.null: a fill with the protocol disabled (Config.Disabled), no Table 1 arc
	ctrUpgrade                  // upgrade: arc 2, a write fault on a READ copy sends UPGRADE to the Remote Client
	ctrRReq                     // rreq: arc 5, a read fault with no copy in the SSMP sends RREQ to the Server
	ctrWReq                     // wreq: arc 5, a write fault with no copy in the SSMP sends WREQ to the Server
	ctrTwin                     // twin: a twin is made, at a WDAT on a non-home SSMP (arcs 6–7) or an applied UPGRADE (arc 13)
	ctrReqPended                // req.pended: arc 22, an RREQ/WREQ that arrives during a release round queues behind it
	ctrRDat                     // rdat: arcs 17, 19, the Server ships a read copy (RDAT) to a non-home SSMP
	ctrWDat                     // wdat: arcs 17–19, the Server ships a write copy (WDAT) to a non-home SSMP
	ctrRDatHome                 // rdat.home: the Server grants the home SSMP's own request the home frame; no data travels
	ctrCleanServe               // clean.serve: a serve to a non-home SSMP first cleans the home SSMP's cached copy (§4.2.4)
	ctrHomeShootdown            // home.shootdown: adds the home SSMP's TLB mappings that such a serve drops
	ctrWNotify                  // wnotify: arc 18, the Server registers a WNOTIFY in write_dir
	ctrWNotifyStale             // wnotify.stale: arc 18, a WNOTIFY naming a copy a release round already retired is dropped
	ctrRel                      // rel: arc 8, a release sends REL for one dirty page
	ctrRelSat                   // rel.sat: arcs 20–22, a REL whose copy a completed round already captured is RACKed at once
	ctrRelRequeued              // rel.requeued: a REL that arrived after its copy's capture re-runs as a fresh round
	ctrInv                      // inv: arc 14, a release round sends INV to a copy
	ctrOneWInv                  // 1winv: arc 14 under the single-writer optimization, 1WINV to the only writer SSMP
	ctrPInv                     // pinv: arc 11, a Remote Client sends PINV to one processor that maps the page
	ctrAckInv                   // ackinv: arcs 22–23, an invalidated READ copy is torn down and replies ACK
	// diff: arcs 22–23, an invalidated WRITE copy is torn down and
	// replies DIFF. It also counts the home SSMP's teardown in
	// finishInv's isHome branch, which ships no diff: that is why
	// `mgs run -app jacobi -small -p 8 -c 1 -counters` prints diff=21
	// beside diffbytes=0.
	ctrDiff
	ctrDiffBytes        // diffbytes: adds the changed bytes of each DIFF counted by diff
	ctrOneWData         // 1wdata: arcs 22–23 under the single-writer optimization, the retained writer replies 1WDATA
	ctrOneWPhantom      // 1wphantom: a retained single writer's ACK shows its write_dir bit was a phantom; retention is dropped
	ctrOneWDemote       // 1wdemote: a retained single writer is demoted by a follow-up INV after foreign data merged
	ctrMergeDiff        // merge.diff: arc 23, the home merges a DIFF (or a lazy release's diff) into the home frame
	ctrMergePage        // merge.page: arc 23, the home merges a 1WDATA transfer
	ctrRack             // rack: arcs 9–10, the Server sends RACK to a releaser
	ctrUpdDiff          // upd.diff: update protocol, a round captures a WRITE copy's diff and keeps the copy
	ctrUpdRefresh       // upd.refresh: update protocol, the Server pushes the merged image to one copy
	ctrUpdHomeShootdown // upd.homeshootdown: update protocol, adds the home SSMP's TLB mappings dropped at round end
	ctrLRel             // lrel: lazy release, a non-home copy ships its diff home and demotes to READ
	ctrLRelHome         // lrel.home: lazy release at the home SSMP; nothing travels, the version advances
	ctrLRelWait         // lrel.wait: lazy release, the page's flush is still in flight and the release waits for its merge
	ctrAcqStale         // acq.stale: lazy acquire, a local copy older than the home version is found
	ctrAcqFlush         // acq.flush: lazy acquire, a stale WRITE copy flushes its writes before it is dropped
	ctrAcqInval         // acq.inval: lazy acquire, a stale READ copy is dropped with no message
	numCtr
)

var ctrNames = [numCtr]string{
	ctrFaultRead:        "fault.read",
	ctrFaultWrite:       "fault.write",
	ctrTLBFillLocal:     "tlbfill.local",
	ctrTLBFillNull:      "tlbfill.null",
	ctrUpgrade:          "upgrade",
	ctrRReq:             "rreq",
	ctrWReq:             "wreq",
	ctrTwin:             "twin",
	ctrReqPended:        "req.pended",
	ctrRDat:             "rdat",
	ctrWDat:             "wdat",
	ctrRDatHome:         "rdat.home",
	ctrCleanServe:       "clean.serve",
	ctrHomeShootdown:    "home.shootdown",
	ctrWNotify:          "wnotify",
	ctrWNotifyStale:     "wnotify.stale",
	ctrRel:              "rel",
	ctrRelSat:           "rel.sat",
	ctrRelRequeued:      "rel.requeued",
	ctrInv:              "inv",
	ctrOneWInv:          "1winv",
	ctrPInv:             "pinv",
	ctrAckInv:           "ackinv",
	ctrDiff:             "diff",
	ctrDiffBytes:        "diffbytes",
	ctrOneWData:         "1wdata",
	ctrOneWPhantom:      "1wphantom",
	ctrOneWDemote:       "1wdemote",
	ctrMergeDiff:        "merge.diff",
	ctrMergePage:        "merge.page",
	ctrRack:             "rack",
	ctrUpdDiff:          "upd.diff",
	ctrUpdRefresh:       "upd.refresh",
	ctrUpdHomeShootdown: "upd.homeshootdown",
	ctrLRel:             "lrel",
	ctrLRelHome:         "lrel.home",
	ctrLRelWait:         "lrel.wait",
	ctrAcqStale:         "acq.stale",
	ctrAcqFlush:         "acq.flush",
	ctrAcqInval:         "acq.inval",
}

// count adds delta to counter c, resolving its handle on the collector's
// registry the first time.
func (s *System) count(c ctr, delta int64) {
	h := s.ctrs[c]
	if h == nil {
		h = s.st.Registry().Counter(ctrNames[c])
		s.ctrs[c] = h
	}
	h.Add(delta)
}
