package sim

import (
	"fmt"
	"sort"
)

// Label identifies a choice-eligible event — in practice a protocol
// message delivery — for a Chooser. Labels exist so a model checker can
// (a) tell deliveries apart when enumerating interleavings and (b)
// render human-readable counterexample schedules. The zero Label (empty
// Kind) marks an event as not choice-eligible: AtChoice degrades to At.
type Label struct {
	// Kind is the message kind ("REQ", "DATA", "INV", ...). Empty means
	// "not a choice point".
	Kind string
	// Page is the page (or other object) the message is about, -1/0 when
	// none.
	Page int64
	// Src and Dst are the endpoint processors.
	Src, Dst int
	// Aux is a kind-specific argument (write flag, reply kind, payload
	// checksum) that distinguishes otherwise-identical deliveries.
	Aux int64
}

// String renders the label compactly for traces and counterexamples.
func (l Label) String() string {
	return fmt.Sprintf("%s pg=%d %d->%d aux=%d", l.Kind, l.Page, l.Src, l.Dst, l.Aux)
}

// Choice is one ready labeled event offered to a Chooser. T and Seq are
// the event's scheduled time and insertion sequence — the default
// dispatch key — so a Chooser can reproduce the engine's own order by
// picking index 0.
type Choice struct {
	T     Time
	Seq   uint64
	Label Label
}

// Chooser arbitrates ready labeled events. When a Chooser is installed
// (SetChooser) and the earliest pending event is labeled, the engine
// collects every pending labeled event in canonical (T, Seq) order and
// asks the Chooser which to dispatch next. Unlabeled events always keep
// the engine's deterministic (t, seq) order — only message deliveries
// branch, which is what bounds a model checker's fan-out.
//
// Choose runs in engine context between event dispatches: it must be
// deterministic, must not block, and must not call Proc methods that
// yield. An out-of-range return is treated as 0.
type Chooser interface {
	Choose(now Time, ready []Choice) int
}

// DefaultChooser always picks ready[0] — the engine's own (t, seq)
// order. A run with DefaultChooser installed is schedule-identical to a
// run with no chooser at all (a property the model checker's tests pin).
type DefaultChooser struct{}

// Choose picks the earliest ready event.
func (DefaultChooser) Choose(Time, []Choice) int { return 0 }

// SetChooser installs c as the ready-event arbiter for this engine's
// run. Install before Run; a nil Chooser (the default) keeps the
// historical fully-deterministic dispatch order on a code path that
// never inspects labels.
func (e *Engine) SetChooser(c Chooser) { e.chooser = c }

// Choosing reports whether a Chooser is installed. Producers use it to
// skip label construction on the (hot) normal path.
func (e *Engine) Choosing() bool { return e.chooser != nil }

// AtChoice schedules fn like At, additionally marking the event as a
// choice point carrying l. With no Chooser installed, or with an empty
// label, it is exactly At — zero allocation, identical schedule.
func (e *Engine) AtChoice(t Time, l Label, fn func()) { e.AtChoiceHandler(t, l, Func(fn)) }

// AtChoiceHandler is AtChoice for a Handler.
func (e *Engine) AtChoiceHandler(t Time, l Label, h Handler) {
	if e.chooser == nil || l.Kind == "" {
		e.AtHandler(t, h)
		return
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.queue.Push(event{t: t, seq: e.seq, h: &labeled{h, l}})
}

// labeled is the Handler of a choice point: h, carrying the label a
// Chooser is shown. Only AtChoiceHandler with a Chooser installed makes
// one, so the normal path's events stay bare.
type labeled struct {
	Handler
	label Label
}

// label returns the event's choice label, nil for an ordinary event.
func (ev *event) label() *Label {
	if l, ok := ev.h.(*labeled); ok {
		return &l.label
	}
	return nil
}

// next returns the event to dispatch. On the nil-chooser path this is
// the heap minimum, byte-identical to the historical loop. With a
// chooser installed, a labeled heap minimum opens a choice: every
// pending labeled event is offered (in canonical (t, seq) order) and
// the chooser's pick is removed from the queue — which may be an event
// scheduled later than others still pending, so Run clamps time
// monotonically rather than assigning it.
func (e *Engine) next() event {
	if e.chooser == nil || e.queue.ev[0].label() == nil {
		return e.queue.Pop()
	}
	idx := e.choiceIdx[:0]
	for i := range e.queue.ev {
		if e.queue.ev[i].label() != nil {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return e.queue.less(idx[a], idx[b]) })
	ready := e.choiceBuf[:0]
	for _, i := range idx {
		ev := &e.queue.ev[i]
		ready = append(ready, Choice{T: ev.t, Seq: ev.seq, Label: *ev.label()})
	}
	k := e.chooser.Choose(e.now, ready)
	if k < 0 || k >= len(idx) {
		k = 0
	}
	e.choiceIdx, e.choiceBuf = idx[:0], ready[:0] // keep scratch capacity
	return e.queue.removeAt(idx[k])
}
