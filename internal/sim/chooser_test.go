package sim

import (
	"fmt"
	"testing"
)

// pickLast always dispatches the latest ready labeled event — the most
// aggressive reordering a Chooser can ask for.
type pickLast struct{ picked []Label }

func (c *pickLast) Choose(now Time, ready []Choice) int {
	c.picked = append(c.picked, ready[len(ready)-1].Label)
	return len(ready) - 1
}

func TestChooserReordersLabeledEventsOnly(t *testing.T) {
	e := NewEngine()
	ch := &pickLast{}
	e.SetChooser(ch)
	var order []string
	rec := func(name string) func() { return func() { order = append(order, name) } }
	e.AtChoice(10, Label{Kind: "A"}, rec("A"))
	e.AtChoice(20, Label{Kind: "B"}, rec("B"))
	e.AtChoice(30, Label{Kind: "C"}, rec("C"))
	e.At(5, rec("plain5"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"plain5", "C", "B", "A"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time %d, want 30 (monotone clamp)", e.Now())
	}
}

func TestDefaultChooserMatchesNilChooser(t *testing.T) {
	run := func(c Chooser) (order []string, final Time) {
		e := NewEngine()
		if c != nil {
			e.SetChooser(c)
		}
		rec := func(name string) func() { return func() { order = append(order, name) } }
		e.AtChoice(10, Label{Kind: "A"}, rec("A"))
		e.AtChoice(10, Label{Kind: "B"}, rec("B"))
		e.At(10, rec("plain"))
		e.AtChoice(3, Label{Kind: "C"}, rec("C"))
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order, e.Now()
	}
	a, at := run(nil)
	b, bt := run(DefaultChooser{})
	if len(a) != len(b) || at != bt {
		t.Fatalf("nil=%v@%d default=%v@%d", a, at, b, bt)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge: nil=%v default=%v", a, b)
		}
	}
}

// The front slot is part of the queue a chooser sees: a labeled event
// waiting there is offered alongside the heap's.
func TestChooserSeesFrontSlotEvent(t *testing.T) {
	e := NewEngine()
	var offered []string
	e.SetChooser(chooseFunc(func(_ Time, ready []Choice) int {
		var kinds []string
		for _, c := range ready {
			kinds = append(kinds, c.Label.Kind)
		}
		offered = append(offered, fmt.Sprint(kinds))
		return len(ready) - 1
	}))
	var order []string
	rec := func(name string) func() { return func() { order = append(order, name) } }
	e.AtChoice(10, Label{Kind: "A"}, rec("A"))
	e.AtChoice(20, Label{Kind: "B"}, rec("B"))
	if !e.queue.full || e.queue.front.label() == nil || e.queue.front.label().Kind != "A" {
		t.Fatal("setup: A should wait in the front slot")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(offered) != "[[A B] [A]]" || fmt.Sprint(order) != "[B A]" {
		t.Fatalf("offered %v, order %v; want [[A B] [A]] and [B A]", offered, order)
	}
}

type chooseFunc func(Time, []Choice) int

func (f chooseFunc) Choose(now Time, ready []Choice) int { return f(now, ready) }
