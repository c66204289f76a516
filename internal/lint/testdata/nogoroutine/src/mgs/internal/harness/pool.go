// Package harness is in nogoroutine's scope even though it is not a
// deterministic package: its worker pool is one of the two sanctioned
// spawn sites, and every other goroutine or channel here is a bug.
package harness

func RunPool(n int, job func(int)) {
	done := make(chan struct{}, n) // want `make\(chan \.\.\.\) in a deterministic package`
	for k := 0; k < n; k++ {
		go func(k int) { // want `go statement hands scheduling`
			job(k)
			done <- struct{}{} // want `channel send in a deterministic package`
		}(k)
	}
	for k := 0; k < n; k++ {
		<-done // want `channel receive in a deterministic package`
	}
}
