package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers resolves a requested sweep width against the job count:
// zero or less means GOMAXPROCS, and no more workers than jobs.
func workers(width, n int) int {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	if width > n {
		width = n
	}
	if width < 1 {
		width = 1
	}
	return width
}

// RunIndexed runs job(0) … job(n-1) across up to width goroutines
// (zero means GOMAXPROCS) and returns the per-index errors. Each job is
// expected to be a self-contained simulation — its own Engine, no
// shared mutable state — so running jobs concurrently cannot change any
// job's simulated outcome: results are bit-identical at any width (the
// determinism tests in internal/exp enforce this). Jobs are claimed
// from an atomic counter, so low indices start first; callers index
// their own result slices, so output order never depends on completion
// order. At width 1 the jobs run inline on the calling goroutine.
func RunIndexed(width, n int, job func(i int) error) []error {
	errs := make([]error, n)
	w := workers(width, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			errs[i] = job(i)
		}
		return errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	return errs
}
