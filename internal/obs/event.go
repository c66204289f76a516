package obs

import (
	"fmt"
	"strings"

	"mgs/internal/sim"
)

// Cat classifies an event by the engine that produced it.
type Cat uint8

const (
	// Protocol: MGS software coherence engines (Local Client, Remote
	// Client, Server) — faults, fills, invalidation rounds, releases.
	Protocol Cat = iota
	// Transport: inter-SSMP wire fates — drops, duplicates, delays,
	// timeouts, retransmissions, acks (the fault-injection transport).
	Transport
	// Sync: the synchronization library — token locks and tree
	// barriers.
	Sync
	// Engine: machine-level handshakes and diagnostics.
	Engine

	// NumCats is the number of event categories.
	NumCats
)

var catNames = [...]string{"protocol", "transport", "sync", "engine"}

// String returns the category name.
func (c Cat) String() string { return catNames[c] }

// ObjKind names the kind of object an event or profile sample is
// about. It doubles as the profiler's attribution-key kind.
type ObjKind uint8

const (
	// ObjNone: not about any particular object.
	ObjNone ObjKind = iota
	// ObjPage: a virtual page (ID is the page number).
	ObjPage
	// ObjLock: an MGS distributed lock (ID is the lock id).
	ObjLock
	// ObjBarrier: an MGS tree barrier (ID is the barrier id).
	ObjBarrier
)

var objNames = [...]string{"", "page", "lock", "barrier"}

// String returns the object-kind label used in text renderings.
func (k ObjKind) String() string { return objNames[k] }

// Event is one structured trace record. Timestamps are virtual time;
// an event never costs simulated cycles to produce.
type Event struct {
	// T is the virtual time of the event.
	T sim.Time
	// Proc is the processor the event executes on, or -1 for events
	// that belong to a software engine rather than a processor (the
	// Chrome exporter gives those their own per-engine track).
	Proc int
	// Cat is the producing engine.
	Cat Cat
	// Name is the event tag (SERVE, INVSTART, TOKENREQ, DROP, ...).
	Name string
	// Kind/ID name the object the event is about (ObjNone when none).
	Kind ObjKind
	// ID is the page number, lock id, or barrier id, per Kind.
	ID int64
	// Dur, when positive, makes the event a span of that many cycles
	// starting at T (rendered as a complete event in Chrome traces).
	Dur sim.Time
	// Args carries up to three event-specific integer arguments (a write
	// flag, a directory mask, a reply kind ...) for machine consumers —
	// the model checker's refinement spec reads protocol facts here
	// instead of parsing Detail. Text renderings ignore Args; the same
	// facts appear human-readably in Detail.
	Args [3]int64
	// Detail is preformatted human-readable context.
	Detail string
}

// String renders the event in the classic text-log shape:
//
//	t=<cycle> [<kind>=<id>] <NAME> <detail>
//
// which is what TextSink prints and what the pre-spine printf tracer
// used to produce.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d", e.T)
	if e.Kind != ObjNone {
		fmt.Fprintf(&b, " %s=%d", e.Kind, e.ID)
	}
	b.WriteByte(' ')
	b.WriteString(e.Name)
	if e.Detail != "" {
		b.WriteByte(' ')
		b.WriteString(e.Detail)
	}
	if e.Dur > 0 {
		fmt.Fprintf(&b, " dur=%d", e.Dur)
	}
	return b.String()
}

// Sink receives trace events. Emit runs in engine context on the
// simulated path: it must be deterministic and must not charge
// simulated cycles (it has no handle through which to do so — keep it
// that way).
type Sink interface {
	Emit(e Event)
}

// filterSink lets tools window a stream by page or time without
// teaching every sink to filter.
type filterSink struct {
	inner Sink
	keep  func(Event) bool
}

// Filter wraps inner so that only events satisfying keep reach it.
func Filter(inner Sink, keep func(Event) bool) Sink {
	return &filterSink{inner: inner, keep: keep}
}

// Emit forwards e when the predicate accepts it.
func (f *filterSink) Emit(e Event) {
	if f.keep(e) {
		f.inner.Emit(e)
	}
}

// Validate reports the first sink that would panic on its first event:
// nil, a text sink with no writer, or a filter with no predicate or over one.
func (o *Observer) Validate() error {
	for i := 0; o != nil && i < len(o.sinks); i++ {
		if why := sinkFault(o.sinks[i]); why != "" {
			return fmt.Errorf("bad trace sink %d: %s", i, why)
		}
	}
	return nil
}

func sinkFault(s Sink) string {
	t, isText := s.(*TextSink)
	f, isFilter := s.(*filterSink)
	switch {
	case s == nil:
		return "nil sink"
	case isText && (t == nil || t.w == nil):
		return "text sink with a nil writer"
	case isFilter && f.keep == nil:
		return "filter sink with a nil predicate"
	case isFilter:
		return sinkFault(f.inner)
	}
	return ""
}
