package core

import (
	"sort"

	"mgs/internal/vm"
)

// Sparse exact directory.
//
// The paper's Server tracks read and write copies in per-SSMP bitmasks
// (read_dir/write_dir), which caps a DSSMP at 64 SSMPs and costs
// O(SSMPs) home memory per page. Here each directory is a sorted list
// of the SSMP ids registered in it, and the per-SSMP copy records (rmt)
// are a sorted sparse list of the SSMPs that have actually been served —
// not a dense O(SSMPs) array — so home-side memory per page is
// O(sharers) at any machine size, and releases invalidate exactly the
// registered copies.

// dirSet is one directory (read or write copies) of one server page:
// the registered SSMP ids in ascending order. The zero value is empty.
type dirSet []int32

// find returns the position of SSMP r in the set, or where it would be
// inserted, and whether it is present.
func (d dirSet) find(r int) (int, bool) {
	i := sort.Search(len(d), func(i int) bool { return d[i] >= int32(r) })
	return i, i < len(d) && d[i] == int32(r)
}

// add registers SSMP r.
func (d *dirSet) add(r int) {
	i, ok := d.find(r)
	if ok {
		return
	}
	*d = append(*d, 0)
	copy((*d)[i+1:], (*d)[i:])
	(*d)[i] = int32(r)
}

// remove deregisters SSMP r.
func (d *dirSet) remove(r int) {
	if i, ok := d.find(r); ok {
		*d = append((*d)[:i], (*d)[i+1:]...)
	}
}

// clear empties the set, keeping its storage.
func (d *dirSet) clear() { *d = (*d)[:0] }

// empty reports whether no SSMP is registered.
func (d dirSet) empty() bool { return len(d) == 0 }

// isOnly reports that the set is exactly {r} — what the single-writer
// optimization needs to know of the write directory.
func (d dirSet) isOnly(r int) bool { return len(d) == 1 && d[0] == int32(r) }

// mask64 projects the set onto the paper's 64-bit directory mask for
// traces, snapshots, and the model checker's refinement spec. At 64 or
// fewer SSMPs every id fits a bit and the projection is the bitmask
// exactly; larger machines fold ids mod 64, which keeps the diagnostics
// bounded.
func (d dirSet) mask64() uint64 {
	var m uint64
	for _, e := range d {
		m |= 1 << (uint(e) & 63)
	}
	return m
}

// appendTargets appends to out, in ascending SSMP order, the copies a
// release round must reach: the union of the read and write
// directories. exclude (-1 for none) drops one SSMP — the update
// protocol's refresh phase never pushes to the home's own cluster.
func appendTargets(out []int, rd, wd dirSet, exclude int) []int {
	i, j := 0, 0
	for i < len(rd) || j < len(wd) {
		var r int
		switch {
		case j >= len(wd) || (i < len(rd) && rd[i] < wd[j]):
			r = int(rd[i])
			i++
		case i >= len(rd) || wd[j] < rd[i]:
			r = int(wd[j])
			j++
		default:
			r = int(rd[i])
			i, j = i+1, j+1
		}
		if r != exclude {
			out = append(out, r)
		}
	}
	return out
}

// roundTargets is appendTargets over sp's directories into the
// System's scratch buffer: the result is valid until the next call.
func (s *System) roundTargets(sp *serverPage, exclude int) []int {
	s.targets = appendTargets(s.targets[:0], sp.readDir, sp.writeDir, exclude)
	return s.targets
}

// rmtGet returns the home's copy record for SSMP r, or nil if r has
// never been served.
func (sp *serverPage) rmtGet(r int) *remoteCopy {
	i := sort.Search(len(sp.rmt), func(i int) bool { return sp.rmt[i].ssmp >= int32(r) })
	if i < len(sp.rmt) && sp.rmt[i].ssmp == int32(r) {
		return &sp.rmt[i]
	}
	return nil
}

// rmtEnsure returns (creating if needed) the copy record for SSMP r.
// Records are never deleted, so pointers stay valid until the next
// rmtEnsure of a new SSMP.
func (sp *serverPage) rmtEnsure(r int) *remoteCopy {
	i := sort.Search(len(sp.rmt), func(i int) bool { return sp.rmt[i].ssmp >= int32(r) })
	if i < len(sp.rmt) && sp.rmt[i].ssmp == int32(r) {
		return &sp.rmt[i]
	}
	sp.rmt = append(sp.rmt, remoteCopy{})
	copy(sp.rmt[i+1:], sp.rmt[i:])
	sp.rmt[i] = remoteCopy{ssmp: int32(r), owner: -1}
	return &sp.rmt[i]
}

// rmtGens returns the teardown-reply count the home has recorded for
// SSMP r (the WNOTIFY staleness clock); zero if r was never served.
func (sp *serverPage) rmtGens(r int) int64 {
	if rc := sp.rmtGet(r); rc != nil {
		return rc.gens
	}
	return 0
}

// pageArena is a page-number-indexed store of per-page records: the
// per-SSMP replacement for the former Go maps of client and server
// pages. Pages are small dense integers (the space is a bump
// allocator), so a direct index beats map hashing on the Access hot
// path, iteration is naturally in page order (no collect-then-sort, no
// map-range determinism hazard), and the arena is SSMP-local state
// exactly as the maps were.
//
// It is two-level: a top-level slice of pointers to fixed-size chunks
// of arenaChunk record pointers, a chunk allocated on the first put
// into it. Every SSMP keeps two arenas indexed by the machine's global
// page numbers, so a flat slot array would cost O(SSMPs × pages) —
// 174 MB of a P = 1024 scale run — while an SSMP touches only its own
// slice of the pages. Chunked, the storage follows the pages touched
// and the top level is 1/arenaChunk of the flat array.
type pageArena[T any] struct {
	chunks []*[arenaChunk]*T
	n      int
}

const (
	arenaShift = 6
	arenaChunk = 1 << arenaShift
	arenaMask  = arenaChunk - 1
)

// get returns the record for page v, or nil.
//
// Must not allocate: pinned by TestPageArena.
func (a *pageArena[T]) get(v vm.Page) *T {
	if c := v >> arenaShift; c < vm.Page(len(a.chunks)) {
		if ch := a.chunks[c]; ch != nil {
			return ch[v&arenaMask]
		}
	}
	return nil
}

// put stores the record for page v.
func (a *pageArena[T]) put(v vm.Page, t *T) {
	c := int(v >> arenaShift)
	if c >= len(a.chunks) {
		size := 2 * len(a.chunks)
		if size < c+1 {
			size = c + 1
		}
		grown := make([]*[arenaChunk]*T, size)
		copy(grown, a.chunks)
		a.chunks = grown
	}
	ch := a.chunks[c]
	if ch == nil {
		ch = new([arenaChunk]*T)
		a.chunks[c] = ch
	}
	if ch[v&arenaMask] == nil {
		a.n++
	}
	ch[v&arenaMask] = t
}

// del removes the record for page v (home migration). The chunk stays.
func (a *pageArena[T]) del(v vm.Page) {
	if c := v >> arenaShift; c < vm.Page(len(a.chunks)) {
		if ch := a.chunks[c]; ch != nil && ch[v&arenaMask] != nil {
			ch[v&arenaMask] = nil
			a.n--
		}
	}
}

// each calls f for every record in ascending page order.
func (a *pageArena[T]) each(f func(vm.Page, *T)) {
	for c, ch := range a.chunks {
		if ch == nil {
			continue
		}
		for i, t := range ch {
			if t != nil {
				f(vm.Page(c<<arenaShift|i), t)
			}
		}
	}
}

// DirectoryStats summarizes the Server-side directory memory across
// every home: what the sparse directory actually holds, and an
// estimate of its bytes. mgs sweep -scale reports these to show home
// state staying O(sharers) — not O(SSMPs) — per page as machines grow.
type DirectoryStats struct {
	Pages        int   // server page records
	RmtEntries   int   // sparse per-SSMP copy records (SSMPs ever served)
	ExactEntries int   // exact directory entries currently registered
	CoarsePages  int   // always 0; kept because bench/run.go folds it into sim_digest
	Bytes        int64 // estimated directory bytes (records + entries + fixed per-page part)
}

// Estimated sizes of the home-side records (pointer-width words).
const (
	rmtEntryBytes   = 24 // ssmp + owner + gens + copy pointer
	exactEntryBytes = 4  // one int32 id
	dirSetBytes     = 2 * 40
)

// DenseBytes estimates what the same pages would occupy under a dense
// directory layout — one copy record per SSMP per served page,
// regardless of sharing. The ratio against Bytes is the sparse
// directory's O(sharers)-versus-O(SSMPs) claim, measured.
func (ds DirectoryStats) DenseBytes(nssmp int) int64 {
	return int64(ds.Pages) * (dirSetBytes + int64(nssmp)*rmtEntryBytes)
}

// DirectoryStats scans every home's server records. Host-side, no
// simulated cost.
func (s *System) DirectoryStats() DirectoryStats {
	var out DirectoryStats
	for _, ss := range s.ssmps {
		ss.servers.each(func(_ vm.Page, sp *serverPage) {
			out.Pages++
			out.RmtEntries += len(sp.rmt)
			exact := len(sp.readDir) + len(sp.writeDir)
			out.ExactEntries += exact
			out.Bytes += dirSetBytes +
				int64(len(sp.rmt))*rmtEntryBytes +
				int64(exact)*exactEntryBytes
		})
	}
	return out
}
