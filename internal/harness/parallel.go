package harness

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mgs/internal/msg"
)

// SweepWorkers caps the number of simulations run concurrently by Sweep
// and RunIndexed. Zero (the default) means GOMAXPROCS; one forces
// sequential execution. Each sweep point is a self-contained Engine with
// no shared mutable state, so running points concurrently cannot change
// any point's simulated outcome — results are bit-identical to a
// sequential run at any worker count (the determinism tests in
// internal/exp enforce this).
var SweepWorkers = 0

// EngineWorkers is the default Config.EngineWorkers applied by
// NewConfig: the number of shard workers the event dispatcher may use
// inside one simulation. Zero or one (the default) keeps the sequential
// engine. Unlike SweepWorkers this parallelizes within a single run —
// results remain bit-identical at any setting (the Config.EngineWorkers
// doc lists the conditions under which a run falls back to sequential
// dispatch). The -engine-workers flag of the command-line tools sets
// this.
var EngineWorkers = 0

// DefaultTopology is the inter-SSMP topology NewConfig applies when no
// WithTopology option overrides it. Nil (the default) means the paper's
// uniform fixed-delay LAN. Topology specs are immutable; every machine
// sizes its own instance and owns its own contention state, so sharing
// the spec across sweep workers is safe. The -topology flag of the
// command-line tools sets this.
var DefaultTopology msg.Topology

// DefaultLockAlgo and DefaultBarrierAlgo are the synchronization
// algorithm names NewConfig applies when no WithLockAlgo /
// WithBarrierAlgo option overrides them. Empty (the default) means the
// paper's token lock and two-level tree barrier. The -lock and -barrier
// flags of the command-line tools set these.
var (
	DefaultLockAlgo    string
	DefaultBarrierAlgo string
)

// workers resolves SweepWorkers against the job count.
func workers(n int) int {
	w := SweepWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunIndexed runs job(0) … job(n-1) across up to SweepWorkers
// goroutines and returns the per-index errors. Jobs are claimed from an
// atomic counter, so low indices start first; callers index their own
// result slices, so output order never depends on completion order.
// With one worker the jobs run inline on the calling goroutine.
func RunIndexed(n int, job func(i int) error) []error {
	errs := make([]error, n)
	w := workers(n)
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
		go func() { //mgslint:allow nogoroutine -- the sweep worker pool: each worker runs whole single-threaded simulations; results land in caller-indexed slots, so completion order is invisible
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
