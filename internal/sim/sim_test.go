package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventQueueOrdersByTimeThenSeq(t *testing.T) {
	var q eventQueue
	times := []Time{5, 1, 3, 1, 5, 0, 3}
	for i, tm := range times {
		i := i
		q.Push(event{t: tm, seq: uint64(i), h: nil})
	}
	var got []event
	for q.Len() > 0 {
		got = append(got, q.Pop())
	}
	want := []struct {
		t   Time
		seq uint64
	}{{0, 5}, {1, 1}, {1, 3}, {3, 2}, {3, 6}, {5, 0}, {5, 4}}
	for i, w := range want {
		if got[i].t != w.t || got[i].seq != w.seq {
			t.Fatalf("pop %d: got (t=%d seq=%d), want (t=%d seq=%d)", i, got[i].t, got[i].seq, w.t, w.seq)
		}
	}
}

// Pop must zero the vacated tail slot: the slot keeps its backing array
// position alive, and a stale handler there pins everything the
// closure captured (procs, pages, buffers) for the life of the queue.
func TestEventQueuePopClearsTailSlot(t *testing.T) {
	var q eventQueue
	for i := 0; i < 4; i++ {
		q.Push(event{t: Time(i), seq: uint64(i), h: Func(func() {})})
	}
	for q.Len() > 0 {
		n := q.Len() - 1
		q.Pop()
		if got := q.ev[:n+1][n]; got.h != nil || got.t != 0 || got.seq != 0 {
			t.Fatalf("vacated slot %d not cleared: %+v", n, got)
		}
	}
}

func TestEventQueuePropertySorted(t *testing.T) {
	f := func(raw []int16) bool {
		var q eventQueue
		for i, v := range raw {
			q.Push(event{t: Time(v), seq: uint64(i)})
		}
		prev := event{t: -1 << 62}
		for q.Len() > 0 {
			e := q.Pop()
			if e.t < prev.t || (e.t == prev.t && e.seq < prev.seq) {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Time
	for _, d := range []Time{30, 10, 20, 10} {
		d := d
		e.At(d, func() { order = append(order, d) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 10, 20, 30}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestEventCanScheduleMoreEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 5 {
			e.After(7, step)
		}
	}
	e.At(0, step)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 || e.Now() != 28 {
		t.Fatalf("count=%d now=%d, want 5, 28", count, e.Now())
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	e := NewEngine()
	var ran Time = -1
	e.At(100, func() {
		e.At(50, func() { ran = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Fatalf("past event ran at %d, want clamped to 100", ran)
	}
}

func TestProcAdvanceAndSleep(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.NewProc(0, 0, func(p *Proc) {
		p.Advance(5)
		trace = append(trace, fmt.Sprintf("a@%d", p.Clock()))
		p.Sleep(10)
		trace = append(trace, fmt.Sprintf("b@%d", p.Clock()))
	})
	e.At(7, func() { trace = append(trace, "ev@7") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@5", "ev@7", "b@15"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestTwoProcsInterleaveByClock(t *testing.T) {
	e := NewEngine()
	var order []int
	mk := func(id int, step Time) {
		e.NewProc(id, 0, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(step)
				order = append(order, id)
			}
		})
	}
	mk(1, 10) // wakes at 10,20,30
	mk(2, 4)  // wakes at 4,8,12
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 2, 1, 2, 1, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestParkWake(t *testing.T) {
	e := NewEngine()
	var woke Time
	p := e.NewProc(0, 0, func(p *Proc) {
		p.Advance(3)
		p.Park()
		woke = p.Clock()
	})
	e.At(50, func() { p.Wake(60) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 60 {
		t.Fatalf("woke at %d, want 60", woke)
	}
}

func TestWakeEarlierThanClockKeepsClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	p := e.NewProc(0, 0, func(p *Proc) {
		p.Advance(100)
		p.Park()
		woke = p.Clock()
	})
	e.At(1, func() { p.Wake(5) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 100 {
		t.Fatalf("woke at %d, want clock preserved at 100", woke)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	e.NewProc(0, 0, func(p *Proc) { p.Park() })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	sentinel := errors.New("stopped")
	ran := 0
	e.At(1, func() { ran++; e.Stop(sentinel) })
	e.At(2, func() { ran++ })
	if err := e.Run(); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (second event must not run)", ran)
	}
}

func TestDebtFoldsIntoAdvance(t *testing.T) {
	e := NewEngine()
	var after Time
	p := e.NewProc(0, 0, func(p *Proc) {
		p.Sleep(10)
		charged := p.Advance(5)
		if charged != 5+7 {
			t.Errorf("charged = %d, want 12", charged)
		}
		after = p.Clock()
	})
	e.At(3, func() { p.AddDebt(7) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after != 22 {
		t.Fatalf("clock = %d, want 22", after)
	}
}

func TestHandlerStartSerializes(t *testing.T) {
	e := NewEngine()
	p := e.NewProc(0, 0, func(p *Proc) {})
	s1 := p.HandlerStart(10, 5)
	s2 := p.HandlerStart(12, 5)
	s3 := p.HandlerStart(30, 5)
	if s1 != 10 || s2 != 15 || s3 != 30 {
		t.Fatalf("starts = %d,%d,%d, want 10,15,30", s1, s2, s3)
	}
	// The third handler still occupies the processor until 35.
	if s4 := p.HandlerStart(31, 1); s4 != 35 {
		t.Fatalf("fourth start = %d, want 35", s4)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism runs a randomized workload twice with the same seed
// and requires identical traces: same wake order, same final clocks.
func TestDeterminism(t *testing.T) {
	runOnce := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var trace []string
		nprocs := 8
		for id := 0; id < nprocs; id++ {
			id := id
			steps := make([]Time, 50)
			for i := range steps {
				steps[i] = Time(rng.Intn(20) + 1)
			}
			e.NewProc(id, 0, func(p *Proc) {
				for _, s := range steps {
					p.Sleep(s)
					trace = append(trace, fmt.Sprintf("%d@%d", id, p.Clock()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a := runOnce(42)
	b := runOnce(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestManyProcsAllFinish exercises the handshake at a larger scale.
func TestManyProcsAllFinish(t *testing.T) {
	e := NewEngine()
	finished := make([]bool, 64)
	for id := 0; id < 64; id++ {
		id := id
		e.NewProc(id, Time(id), func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(Time(1 + id%3))
			}
			finished[id] = true
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for id, ok := range finished {
		if !ok {
			t.Fatalf("proc %d did not finish", id)
		}
	}
}

// TestParkWakeChain: a ring of processors where each wakes the next,
// verifying Park/Wake pairs compose.
func TestParkWakeChain(t *testing.T) {
	e := NewEngine()
	const n = 5
	procs := make([]*Proc, n)
	var order []int
	for i := 0; i < n; i++ {
		i := i
		procs[i] = e.NewProc(i, 0, func(p *Proc) {
			if i != 0 {
				p.Park()
			}
			order = append(order, i)
			if i+1 < n {
				next := procs[i+1]
				at := p.Clock() + 10
				p.eng.At(p.Clock(), func() { next.Wake(at) })
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) || len(order) != n {
		t.Fatalf("order = %v, want 0..%d in order", order, n-1)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(1, step)
		}
	}
	e.At(0, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine()
	e.NewProc(0, 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// assertNoAllocsPerOp runs f(n), a simulation of n operations, for two
// values of n and fails when 1000 more operations cost ten or more heap
// allocations more — one allocation per operation would cost a
// thousand. Comparing two sizes cancels what a run allocates once
// (engine, heap growth, coroutine); the slack absorbs the runtime's own
// bookkeeping.
func assertNoAllocsPerOp(t *testing.T, what string, f func(n int)) {
	t.Helper()
	few := testing.AllocsPerRun(5, func() { f(100) })
	many := testing.AllocsPerRun(5, func() { f(1100) })
	if many-few >= 10 {
		t.Fatalf("%s allocates: %.0f allocations for 100, %.0f for 1100", what, few, many)
	}
}

// The engine's two yields are what a TLB-thrashing run does a million
// times (tlb-thrash: 1.4 M allocations a pass when each resume was a
// closure, 15 k now). A Proc is its own resume event, so neither may
// allocate.
func TestSleepAndParkWakeDoNotAllocate(t *testing.T) {
	assertNoAllocsPerOp(t, "a Sleep/resume round trip", func(n int) {
		e := NewEngine()
		e.NewProc(0, 0, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	assertNoAllocsPerOp(t, "a Park/Wake round trip", func(n int) {
		e := NewEngine()
		p := e.NewProc(0, 0, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Park()
			}
		})
		left := n
		var wake func()
		wake = func() {
			p.Wake(e.Now())
			if left--; left > 0 {
				e.After(1, wake)
			}
		}
		e.At(1, wake)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// A panic in a processor body is the caller's to handle: it unwinds
// through the resume that switched to the body and out of Run. (When a
// body was a detached goroutine it killed the process instead.)
func TestBodyPanicReachesRunsCaller(t *testing.T) {
	e := NewEngine()
	e.NewProc(0, 0, func(p *Proc) {
		p.Sleep(5)
		panic("body failed")
	})
	defer func() {
		if r := recover(); r != "body failed" {
			t.Fatalf("recovered %v, want the body's panic value", r)
		}
	}()
	err := e.Run()
	t.Fatalf("Run returned (%v); the body's panic should have unwound through it", err)
}

// callRecord is a Handler record that calls one method on a Proc: an
// AtHandler event, as a pooled protocol message is one.
type callRecord struct {
	p    *Proc
	call func(*Proc)
}

func (r *callRecord) Fire() { r.call(r.p) }

// panicOf runs f and returns what it panicked with, or nil.
func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// Advance, Sleep, Yield and Park belong to the proc's own body. From an
// event (a callback or a handler record), from another proc's body, or
// before the body has started, each must panic naming itself — before
// it moves a clock or queues an event.
func TestProcContextIsEnforced(t *testing.T) {
	methods := []struct {
		name string
		call func(*Proc)
	}{
		{"Advance", func(p *Proc) { p.Advance(1) }},
		{"Sleep", func(p *Proc) { p.Sleep(1) }},
		{"Yield", func(p *Proc) { p.Yield() }},
		{"Park", func(p *Proc) { p.Park() }},
	}
	// Each context runs call against a proc that is suspended (or not
	// yet started) at the moment of the call.
	contexts := []struct {
		name string
		run  func(call func(*Proc)) error
	}{
		{"Engine.At callback", func(call func(*Proc)) error {
			e := NewEngine()
			v := e.NewProc(0, 0, func(p *Proc) { p.Sleep(10) })
			e.At(1, func() { call(v) })
			return e.Run()
		}},
		{"AtHandler record", func(call func(*Proc)) error {
			e := NewEngine()
			v := e.NewProc(0, 0, func(p *Proc) { p.Sleep(10) })
			e.AtHandler(1, &callRecord{p: v, call: call})
			return e.Run()
		}},
		{"another proc's body", func(call func(*Proc)) error {
			e := NewEngine()
			v := e.NewProc(0, 0, func(p *Proc) { p.Sleep(10) })
			e.NewProc(1, 1, func(*Proc) { call(v) })
			return e.Run()
		}},
		{"proc not yet started", func(call func(*Proc)) error {
			e := NewEngine()
			call(e.NewProc(0, 5, func(*Proc) {}))
			return e.Run()
		}},
	}
	for _, c := range contexts {
		for _, m := range methods {
			t.Run(c.name+"/"+m.name, func(t *testing.T) {
				want := "sim: Proc." + m.name + " outside the proc's own body"
				var err error
				got := panicOf(func() { err = c.run(m.call) })
				if got != want {
					t.Fatalf("panicked with %v (Run returned %v), want %q", got, err, want)
				}
			})
		}
	}

	// The engine-context methods stay legal from a handler.
	e := NewEngine()
	var charged, clock Time
	v := e.NewProc(0, 0, func(p *Proc) {
		p.Park()
		charged = p.Advance(0)
		clock = p.Clock()
	})
	e.At(1, func() {
		v.AddDebt(2)
		v.HandlerStart(1, 3)
		v.Wake(4)
	})
	if got := panicOf(func() {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}); got != nil {
		t.Fatalf("Wake/AddDebt/HandlerStart from a handler panicked: %v", got)
	}
	if charged != 2 || clock != 4+2 {
		t.Fatalf("after the wake: charged %d, clock %d; want the debt 2 on top of the wake time 4", charged, clock)
	}
}
