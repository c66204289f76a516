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

// RunIndexed is in nogoroutine's sanctionedSites: the worker pool's
// spawn, and everything else in its body, goes unreported.
func RunIndexed(n int, job func(int)) {
	done := make(chan struct{}, n)
	for k := 0; k < n; k++ {
		go func(k int) {
			job(k)
			done <- struct{}{}
		}(k)
	}
	for k := 0; k < n; k++ {
		<-done
	}
}
