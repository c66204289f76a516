package obs

import (
	"fmt"
	"io"
	"sort"

	"mgs/internal/sim"
)

// ProfKey is one attribution cell: a processor, a runtime component
// (the stats.Category ordinal — User/Lock/Barrier/MGS), and the object
// the cycles were spent on.
type ProfKey struct {
	Proc int32
	Comp uint8
	Kind ObjKind
	ID   int64
}

// profCur is one processor's current attribution context plus a
// per-component cell cache so the hot Charge path is one nil test and
// one add once a context is warm.
type profCur struct {
	kind  ObjKind
	id    int64
	cells []*sim.Time // [comp] -> cell for (proc, comp, kind, id)
}

// Profiler charges every simulated cycle to a (processor, component,
// object) key. The object context is a per-processor register the
// protocol and sync layers set around their work: the page a fault is
// resolving, the lock being acquired, the barrier being waited on.
// Cycles charged with no context land on ObjNone.
//
// The profiler's per-(processor, component) totals equal the stats
// collector's buckets exactly — both are fed by the same Charge calls —
// which is the reconciliation invariant mgs profile asserts.
type Profiler struct {
	ncomp int
	cur   []profCur
	cells map[ProfKey]*sim.Time
}

// NewProfiler returns a profiler for nprocs processors and ncomp
// attribution components.
func NewProfiler(nprocs, ncomp int) *Profiler {
	p := &Profiler{
		ncomp: ncomp,
		cur:   make([]profCur, nprocs),
		cells: make(map[ProfKey]*sim.Time),
	}
	for i := range p.cur {
		p.cur[i].cells = make([]*sim.Time, ncomp)
	}
	return p
}

// SetContext switches processor proc's attribution object, returning
// the previous object so callers can nest and restore:
//
//	k, id := prof.SetContext(p, obs.ObjPage, int64(page))
//	defer prof.SetContext(p, k, id)
func (p *Profiler) SetContext(proc int, kind ObjKind, id int64) (ObjKind, int64) {
	c := &p.cur[proc]
	pk, pid := c.kind, c.id
	if pk == kind && pid == id {
		return pk, pid
	}
	c.kind, c.id = kind, id
	for i := range c.cells {
		c.cells[i] = nil
	}
	return pk, pid
}

// Context reports processor proc's current attribution object.
func (p *Profiler) Context(proc int) (ObjKind, int64) {
	return p.cur[proc].kind, p.cur[proc].id
}

// Charge attributes cycles to (proc, comp) under proc's current object
// context. It is the profiler's hot path: after the first charge in a
// context the cost is one slice load and one add.
func (p *Profiler) Charge(proc, comp int, cycles sim.Time) {
	c := &p.cur[proc]
	cell := c.cells[comp]
	if cell == nil {
		key := ProfKey{Proc: int32(proc), Comp: uint8(comp), Kind: c.kind, ID: c.id}
		cell = p.cells[key]
		if cell == nil {
			cell = new(sim.Time)
			p.cells[key] = cell
		}
		c.cells[comp] = cell
	}
	*cell += cycles
}

// Sample is one attributed cell.
type Sample struct {
	Key    ProfKey
	Cycles sim.Time
}

// Samples returns every nonzero cell sorted by (Proc, Comp, Kind, ID) —
// a deterministic flattening of the attribution map.
func (p *Profiler) Samples() []Sample {
	var keys []ProfKey
	for k := range p.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Comp != b.Comp {
			return a.Comp < b.Comp
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.ID < b.ID
	})
	out := make([]Sample, 0, len(keys))
	for _, k := range keys {
		if c := *p.cells[k]; c != 0 {
			out = append(out, Sample{Key: k, Cycles: c})
		}
	}
	return out
}

// Totals returns per-(processor, component) cycle totals, the profiler
// side of the reconciliation against the stats breakdown.
func (p *Profiler) Totals() [][]sim.Time {
	out := make([][]sim.Time, len(p.cur))
	for i := range out {
		out[i] = make([]sim.Time, p.ncomp)
	}
	for _, s := range p.Samples() {
		out[s.Key.Proc][s.Key.Comp] += s.Cycles
	}
	return out
}

// HeatLine is one object's aggregate cost across all processors and
// components.
type HeatLine struct {
	Kind   ObjKind
	ID     int64
	Cycles sim.Time
	// ByComp splits the object's cycles by component ordinal.
	ByComp []sim.Time
}

// Heat aggregates cycles per object of the given kind, hottest first
// (ties break low-ID-first, so output is deterministic).
func (p *Profiler) Heat(kind ObjKind) []HeatLine {
	byID := make(map[int64]*HeatLine)
	for _, s := range p.Samples() {
		if s.Key.Kind != kind {
			continue
		}
		h := byID[s.Key.ID]
		if h == nil {
			h = &HeatLine{Kind: kind, ID: s.Key.ID, ByComp: make([]sim.Time, p.ncomp)}
			byID[s.Key.ID] = h
		}
		h.Cycles += s.Cycles
		h.ByComp[s.Key.Comp] += s.Cycles
	}
	var out []HeatLine
	for _, h := range byID {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteCollapsed writes the profile in collapsed-stack ("folded")
// format, one line per cell:
//
//	proc3;MGS;page:42 1234
//
// which flamegraph.pl, speedscope, and `go tool pprof`-adjacent tooling
// ingest directly. compName maps component ordinals to names.
func (p *Profiler) WriteCollapsed(w io.Writer, compName func(int) string) error {
	for _, s := range p.Samples() {
		var obj string
		if s.Key.Kind == ObjNone {
			obj = "(none)"
		} else {
			obj = fmt.Sprintf("%s:%d", s.Key.Kind, s.Key.ID)
		}
		if _, err := fmt.Fprintf(w, "proc%d;%s;%s %d\n",
			s.Key.Proc, compName(int(s.Key.Comp)), obj, int64(s.Cycles)); err != nil {
			return err
		}
	}
	return nil
}
