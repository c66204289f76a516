package core

import "mgs/internal/sim"

// Costs parameterizes the software side of the MGS protocol, in cycles
// and bytes. Which protocol runs is a Variant (variant.go), not a cost.
// The Table 3 software numbers (TLB fill, inter-SSMP misses, releases)
// are not set here directly — they emerge from protocol execution over
// these primitives plus the message costs in internal/msg; the defaults
// are calibrated so the emergent values land near the paper's (see the
// calibration test in internal/harness).
type Costs struct {
	TransArray sim.Time // in-line translation, distributed-array access
	TransPtr   sim.Time // in-line translation, pointer dereference

	FaultEntry sim.Time // trap into the Local Client and state save
	PTLockOp   sim.Time // acquire or release a page-table lock
	TLBFill    sim.Time // page-table walk plus software TLB insert
	NullFill   sim.Time // plain SVM fill when MGS is disabled (C = P)
	MapPage    sim.Time // frame allocation and mapping bookkeeping

	RelWork   sim.Time // server-side bookkeeping per REL
	ReqWork   sim.Time // server-side bookkeeping per RREQ/WREQ
	UpWork    sim.Time // remote-client work per UPGRADE
	PinvWork  sim.Time // per-processor TLB shootdown handler work
	MergeWork sim.Time // fixed cost to start a diff merge at the home

	TwinPerByte  sim.Time // twin (page snapshot) copy, cycles per byte
	DiffPerByte  sim.Time // twin-vs-page comparison scan, cycles per byte
	ApplyPerByte sim.Time // diff merge at the home, cycles per byte

	CtrlBytes   int // payload of a control message
	DiffHdrByte int // per-range overhead in a DIFF payload
}

// DefaultCosts returns the calibrated cost table (20 MHz Alewife,
// 1K-byte pages).
func DefaultCosts() Costs {
	return Costs{
		TransArray: 18,
		TransPtr:   24,

		FaultEntry: 400,
		PTLockOp:   120,
		TLBFill:    480,
		NullFill:   120,
		MapPage:    1000,

		RelWork:   300,
		ReqWork:   600,
		UpWork:    200,
		PinvWork:  150,
		MergeWork: 200,

		TwinPerByte:  6,
		DiffPerByte:  4,
		ApplyPerByte: 1,

		CtrlBytes:   32,
		DiffHdrByte: 8,
	}
}
