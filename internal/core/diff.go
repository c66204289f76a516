package core

import "encoding/binary"

// Munin-style twin/diff machinery (paper §3.1.1). When an SSMP obtains
// write privilege on a page it snapshots the page (the twin). At
// invalidation time the protocol compares the current page against the
// twin and ships only the changed byte ranges back to the home, which
// merges them. Two SSMPs writing disjoint parts of one page therefore
// both get their writes home — the multiple-writer protocol that makes
// page-grain false sharing survivable.

// DiffRange is one changed run of bytes.
type DiffRange struct {
	Off  int
	Data []byte
}

// Diff is the set of changed ranges of one page, in ascending offset
// order. All ranges of one Diff share a single backing buffer.
type Diff []DiffRange

// Checksum returns a deterministic FNV-1a digest of the diff's ranges
// (offsets and payloads). The model checker folds it into message
// labels so in-flight diffs with different contents never hash to the
// same pending-event multiset; it is never computed on normal runs.
//
// Must not allocate: pinned by TestDiffPoolRoundTripZeroAllocs.
func (d Diff) Checksum() uint64 {
	h := uint64(fnvOffset64)
	for _, r := range d {
		for sh := 0; sh < 64; sh += 8 {
			h = (h ^ (uint64(r.Off) >> sh & 0xff)) * fnvPrime64
		}
		h = fnvBytes(h, r.Data)
	}
	return h
}

// Word-wise scan constants: x-lo&^x&hi is nonzero iff the word x has a
// zero byte (exact — borrows only occur past a zero byte).
const (
	zlo = 0x0101010101010101
	zhi = 0x8080808080808080
)

// DiffBuf is reusable storage for diff computation: the range headers
// and the payload bytes of one diff at a time. A Diff returned by
// Compute aliases the buffer, so the buffer must stay untouched until
// the diff's last Apply; recycling it (the System's pool, diffTwin)
// then makes steady-state diffing allocation-free.
type DiffBuf struct {
	ranges []DiffRange
	data   []byte
}

// Compute compares the current page contents against its twin and
// returns the changed ranges (with the current values), overwriting
// the buffer's previous contents. Adjacent changed bytes coalesce into
// one range.
//
// The scan compares eight bytes at a time: equal stretches skip by
// whole words, changed stretches extend by whole words while every byte
// of the word differs, and only the boundary word of a run is examined
// byte by byte. The range payloads are carved from the buffer's single
// payload slab — zero allocations once the buffer has grown to the
// workload's high-water mark. The ranges produced are byte-identical
// to a plain byte-at-a-time scan, so message sizes and protocol costs
// are unchanged.
//
// Must not allocate: pinned by TestDiffPoolRoundTripZeroAllocs.
func (b *DiffBuf) Compute(twin, cur []byte) Diff {
	if len(twin) != len(cur) {
		panic("core: twin/page size mismatch")
	}
	n := len(cur)
	d := b.ranges[:0]
	total := 0
	i := 0
	for i < n {
		// Skip the equal prefix a word at a time, then finish the
		// partial word byte-wise.
		for i+8 <= n && binary.LittleEndian.Uint64(twin[i:]) == binary.LittleEndian.Uint64(cur[i:]) {
			i += 8
		}
		for i < n && twin[i] == cur[i] {
			i++
		}
		if i == n {
			break
		}
		// Extend the changed run: whole words while all eight bytes
		// differ (the XOR has no zero byte), byte-wise at the boundary.
		j := i + 1
		for j < n {
			if j+8 <= n {
				x := binary.LittleEndian.Uint64(twin[j:]) ^ binary.LittleEndian.Uint64(cur[j:])
				if x != 0 && (x-zlo)&^x&zhi == 0 {
					j += 8
					continue
				}
			}
			if twin[j] == cur[j] {
				break
			}
			j++
		}
		// Record the run; Data temporarily aliases cur until the shared
		// buffer is carved below.
		d = append(d, DiffRange{Off: i, Data: cur[i:j]})
		total += j - i
		i = j
	}
	b.ranges = d
	if total > 0 {
		if cap(b.data) < total {
			b.data = make([]byte, total)
		}
		buf := b.data[:total]
		pos := 0
		for k := range d {
			m := copy(buf[pos:pos+len(d[k].Data)], d[k].Data)
			d[k].Data = buf[pos : pos+m : pos+m]
			pos += m
		}
	}
	return d
}

// ComputeDiff computes a diff the caller may keep: the returned Diff
// owns its storage. A byte-wise pre-pass counts the changed runs and
// bytes, so the only allocations are two exact-size ones (ranges and
// payload slab; none for a clean page) — not a buffer's growth by
// doubling. Protocol paths that apply-and-discard use a recycled
// DiffBuf directly.
func ComputeDiff(twin, cur []byte) Diff {
	runs, total := 0, 0
	for i := range cur {
		if twin[i] != cur[i] {
			total++
			if i == 0 || twin[i-1] == cur[i-1] {
				runs++
			}
		}
	}
	b := DiffBuf{ranges: make([]DiffRange, 0, runs), data: make([]byte, total)}
	return b.Compute(twin, cur)
}

// Apply merges the diff into dst (the home copy).
//
// Must not allocate: pinned by TestDiffPoolRoundTripZeroAllocs.
func (d Diff) Apply(dst []byte) {
	for _, r := range d {
		copy(dst[r.Off:r.Off+len(r.Data)], r.Data)
	}
}

// Bytes is the payload size of the diff: changed data plus a fixed
// per-range header of hdr bytes.
//
// Must not allocate: pinned by TestDiffPoolRoundTripZeroAllocs.
func (d Diff) Bytes(hdr int) int {
	n := 0
	for _, r := range d {
		n += len(r.Data) + hdr
	}
	return n
}

// Len reports the number of ranges.
//
// Must not allocate: pinned by TestDiffPoolRoundTripZeroAllocs.
func (d Diff) Len() int { return len(d) }
