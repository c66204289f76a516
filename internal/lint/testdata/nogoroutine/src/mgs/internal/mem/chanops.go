package mem

// Spawn hands scheduling to the Go runtime.
func Spawn(fn func()) {
	go fn() // want `go statement hands scheduling`
}

// Channels exercises every forbidden channel operation.
func Channels() {
	ch := make(chan int, 1) // want `make\(chan \.\.\.\) in a deterministic package`
	ch <- 1                 // want `channel send in a deterministic package`
	<-ch                    // want `channel receive in a deterministic package`
	close(ch)               // want `close of channel in a deterministic package`
	for range ch { // want `range over channel`
	}
}

// Choose is scheduler-dependent by construction.
func Choose(a, b chan int) int {
	select { // want `select statement`
	case v := <-a: // want `channel receive in a deterministic package`
		return v
	case v := <-b: // want `channel receive in a deterministic package`
		return v
	}
}

// NotChannels shows make/close of non-channel things stay legal.
func NotChannels() []int {
	s := make([]int, 4)
	m := make(map[int]int)
	_ = m
	return s
}
