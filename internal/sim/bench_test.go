package sim

import "testing"

// BenchmarkEventQueue measures one push+pop cycle through the event
// heap at a realistic standing population (a machine's worth of
// in-flight messages and timers).
func BenchmarkEventQueue(b *testing.B) {
	var q eventQueue
	fn := func() {}
	for i := 0; i < 256; i++ {
		q.Push(event{t: Time(i), seq: uint64(i), h: Func(fn)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.Pop()
		e.t += 256
		q.Push(e)
	}
}

// BenchmarkEngineDispatch measures a full event dispatch through the
// public API: schedule, pop, run.
func BenchmarkEngineDispatch(b *testing.B) {
	e := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			e.After(1, fn)
		}
	}
	e.After(1, fn)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
