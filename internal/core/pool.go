package core

import "sync"

// Process-wide recycling pools. Twin buffers and diff buffers churn at
// protocol rate; recycling them across releases — and across the many
// short-lived Systems a parameter sweep builds — keeps the steady state
// allocation-free and stops sweep-level runs from spending their time
// in the allocator. Both pools are size-keyed: one sweep can mix page
// sizes.
//
// Determinism: pool contents never reach the simulation. A page buffer
// is fully overwritten before any simulated read (newTwin copies a
// whole page into it) and a DiffBuf's Compute overwrites everything it
// exposes, so which pooled object a caller happens to draw — the one
// nondeterministic choice sync.Pool makes — is invisible to virtual
// time, protocol state, and results.

var pageBufPools sync.Map // page size -> *sync.Pool of *[]byte

func getPageBuf(n int) []byte {
	p, ok := pageBufPools.Load(n)
	if !ok {
		p, _ = pageBufPools.LoadOrStore(n, &sync.Pool{
			New: func() any { b := make([]byte, n); return &b },
		})
	}
	return *p.(*sync.Pool).Get().(*[]byte)
}

func putPageBuf(b []byte) {
	if p, ok := pageBufPools.Load(len(b)); ok {
		p.(*sync.Pool).Put(&b)
	}
}

// diffBufPool recycles diff scratch buffers. New pre-sizes the range
// header slice so a fresh buffer's first Compute does not pay the
// append growth-by-doubling walk; the payload slab still grows to the
// first diff's high-water mark on demand.
var diffBufPool = sync.Pool{
	New: func() any { return &DiffBuf{ranges: make([]DiffRange, 0, 32)} },
}

// getDiffBuf draws a reusable diff buffer. Pair with putDiffBuf once
// the diff computed from it has been applied (or discarded).
//
// Must not allocate: pinned by TestDiffPoolRoundTripZeroAllocs.
func getDiffBuf() *DiffBuf { return diffBufPool.Get().(*DiffBuf) }

// Must not allocate: pinned by TestDiffPoolRoundTripZeroAllocs.
func putDiffBuf(b *DiffBuf) {
	if b != nil {
		diffBufPool.Put(b)
	}
}
