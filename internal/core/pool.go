package core

// Buffer free lists. Twin buffers, DMA page images and diff buffers
// churn at protocol rate; recycling them across releases keeps the
// steady state allocation-free. A System has one page size, so each
// list holds interchangeable buffers, and it is the System's own state:
// lists grow lazily to the run's high-water mark and nothing is shared
// between Systems.
//
// Determinism: buffer contents never reach the simulation. A page
// buffer is fully overwritten before any simulated read (newTwin and
// serveData copy a whole page into it) and a DiffBuf's Compute
// overwrites everything it exposes.

// getPageBuf draws a page-size buffer.
func (s *System) getPageBuf() []byte {
	if n := len(s.pageBufs) - 1; n >= 0 {
		b := s.pageBufs[n]
		s.pageBufs = s.pageBufs[:n]
		return b
	}
	return make([]byte, s.cfg.PageSize)
}

func (s *System) putPageBuf(b []byte) { s.pageBufs = append(s.pageBufs, b) }

// getDiffBuf draws a reusable diff buffer. Pair with putDiffBuf once
// the diff computed from it has been applied (or discarded). A fresh
// buffer's range headers are pre-sized so its first Compute does not
// pay the append growth-by-doubling walk; the payload slab still grows
// to the first diff's high-water mark on demand.
//
// Must not allocate once warm: pinned by TestDiffPoolRoundTripZeroAllocs.
func (s *System) getDiffBuf() *DiffBuf {
	if n := len(s.diffBufs) - 1; n >= 0 {
		b := s.diffBufs[n]
		s.diffBufs = s.diffBufs[:n]
		return b
	}
	return &DiffBuf{ranges: make([]DiffRange, 0, 32)}
}

// Must not allocate once warm: pinned by TestDiffPoolRoundTripZeroAllocs.
func (s *System) putDiffBuf(b *DiffBuf) {
	if b != nil {
		s.diffBufs = append(s.diffBufs, b)
	}
}
