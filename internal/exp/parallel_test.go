package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mgs/internal/core"
	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/obs"
)

// The parallel dispatcher's contract, pinned here: for every worker
// count, every application, and every transport condition (fault-free
// or the chaos envelope), a sharded run is bit-identical to the
// sequential reference — same cycles, same breakdown, same counters,
// same final memory. Workers=1 IS the sequential engine, so these tests
// compare against it directly. Under -race the multi-worker runs also
// serve as the shard-isolation race check. The same contract on the
// contended topologies — which force the sequential fallback via zero
// lookahead — is pinned in topology_test.go.

// runWorkers runs one app at the given worker count and returns the
// result and final memory image.
func runWorkers(t *testing.T, name string, workers int, plan fault.Plan) (harness.Result, []byte) {
	t.Helper()
	cfg := harness.NewConfig(8, 2)
	cfg.EngineWorkers = workers
	cfg.Fault = plan
	res, mem, err := harness.RunAppMem(SmallApp(name), cfg)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, workers, err)
	}
	return res, mem
}

// TestParallelEngineBitIdentical is the core equivalence matrix: the
// paper suite plus the serving workload, worker counts spanning
// fewer-than-shards through more-than-shards, fault-free and under the
// 5%-loss chaos envelope.
func TestParallelEngineBitIdentical(t *testing.T) {
	plans := map[string]fault.Plan{
		"faultfree": {},
		"chaos5pct": envelopePlan(11),
	}
	names := append(append([]string{}, AppNames...), "serve")
	for planName, plan := range plans {
		for _, name := range names {
			refRes, refMem := runWorkers(t, name, 1, plan)
			for _, w := range []int{2, 4, 8} {
				res, mem := runWorkers(t, name, w, plan)
				if !reflect.DeepEqual(refRes, res) {
					t.Errorf("%s/%s workers=%d: result diverges from sequential\nseq: %+v\npar: %+v",
						name, planName, w, refRes, res)
					continue
				}
				if !bytes.Equal(refMem, mem) {
					t.Errorf("%s/%s workers=%d: final memory diverges from sequential", name, planName, w)
				}
			}
		}
	}
}

// TestParallelEngineEngages pins that the equivalence above is not
// vacuous: the standard test shape actually runs the sharded
// dispatcher — under every protocol variant whose handlers stay inside
// their SSMP shard, and under no other.
func TestParallelEngineEngages(t *testing.T) {
	for _, nv := range core.Variants() {
		cfg := harness.NewConfig(8, 2)
		cfg.EngineWorkers = 4
		cfg.Variant = nv.Variant
		app := SmallApp("water")
		m := harness.NewMachine(cfg)
		app.Setup(m)
		if _, err := m.Run(app.Body); err != nil {
			t.Fatalf("%s: %v", nv.Name, err)
		}
		if got, want := m.Eng.Parallelized(), nv.ShardLocal(); got != want {
			t.Errorf("%s: parallel dispatcher engaged = %v, ShardLocal() = %v", nv.Name, got, want)
		}
	}
}

// TestParallelTracingFallsBack pins the observer gate: a tracing run
// requested with many workers must fall back to sequential dispatch and
// produce the identical trace.
func TestParallelTracingFallsBack(t *testing.T) {
	run := func(workers int) (harness.Result, string) {
		var b strings.Builder
		cfg := harness.NewConfig(8, 2,
			harness.WithObserver(obs.New().AddSink(obs.NewTextSink(&b))))
		cfg.EngineWorkers = workers
		app := SmallApp("jacobi")
		m := harness.NewMachine(cfg)
		app.Setup(m)
		res, err := m.Run(app.Body)
		if err != nil {
			t.Fatal(err)
		}
		if m.Eng.Parallelized() {
			t.Fatalf("workers=%d: tracing run must not use the parallel dispatcher", workers)
		}
		return res, b.String()
	}
	res1, tr1 := run(1)
	res8, tr8 := run(8)
	if !reflect.DeepEqual(res1, res8) {
		t.Fatalf("tracing fallback result diverges:\nw1: %+v\nw8: %+v", res1, res8)
	}
	if tr1 != tr8 {
		t.Fatalf("tracing fallback traces diverge (%d vs %d bytes)", len(tr1), len(tr8))
	}
}
