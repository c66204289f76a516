package exp

import (
	"bytes"
	"fmt"
	"reflect"

	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/sim"
)

// Chaos testing: run the application suite over the fault-injecting
// reliable transport (internal/fault, internal/msg reliable.go) and
// verify that the MGS protocol's answers survive message loss,
// duplication, and reordering. Two properties are checked per run:
//
//   - the app's own Verify passes (the computation is still right);
//   - the final shared-memory image is byte-identical to a fault-free
//     run of the same app on the same machine shape — faults may change
//     *when* everything happens, never *what* memory holds at the end.

// ChaosPoint is the outcome of one (app, seed) chaos run.
type ChaosPoint struct {
	App  string
	Seed uint64
	Plan fault.Plan
	// Res is the faulty run's result; Res.Fault holds the transport
	// accounting (drops, retransmissions, suppressed replays, ...).
	Res harness.Result
	// BaseCycles is the fault-free baseline's parallel time on the same
	// machine shape.
	BaseCycles sim.Time
	// MemOK reports that the faulty run's final memory was byte-identical
	// to the baseline's.
	MemOK bool
}

// Slowdown is the faulty run's time relative to the fault-free baseline.
func (pt ChaosPoint) Slowdown() float64 {
	return float64(pt.Res.Cycles) / float64(pt.BaseCycles)
}

// ChaosSweep runs every named app fault-free once (the baseline) and
// then under mkPlan(seed) for every seed, all on a P=p, C=c machine.
// Each faulty run must pass its app's Verify; MemOK records the
// byte-for-byte memory comparison against the baseline. Runs execute
// concurrently and, like every sweep in this package, the results are
// independent of the width.
func ChaosSweep(names []string, seeds []uint64, p, c int, mkPlan func(uint64) fault.Plan, e Env) ([]ChaosPoint, error) {
	baseMem := make([][]byte, len(names))
	baseRes := make([]harness.Result, len(names))
	err := e.each(len(names), func(i int) error {
		res, mem, err := harness.RunAppMem(e.Apps(names[i]), e.Config(p, c))
		if err != nil {
			return fmt.Errorf("chaos baseline %s: %w", names[i], err)
		}
		baseRes[i], baseMem[i] = res, mem
		return nil
	})
	if err != nil {
		return nil, err
	}
	points := make([]ChaosPoint, len(names)*len(seeds))
	err = e.each(len(points), func(i int) error {
		ai, si := i/len(seeds), i%len(seeds)
		plan := mkPlan(seeds[si])
		res, mem, err := harness.RunAppMem(e.Apps(names[ai]), e.Config(p, c, harness.WithFaultPlan(plan)))
		if err != nil {
			return fmt.Errorf("chaos %s seed=%d: %w", names[ai], seeds[si], err)
		}
		points[i] = ChaosPoint{
			App: names[ai], Seed: seeds[si], Plan: plan, Res: res,
			BaseCycles: baseRes[ai].Cycles,
			MemOK:      bytes.Equal(mem, baseMem[ai]),
		}
		return nil
	})
	return points, err
}

// ZeroFaultEquivalence checks msg.AttachFault's identity contract at the
// harness level: the named app run with an empty (rateless) fault plan
// attached must produce a Result and final memory image identical to a
// run that never attached one. A non-nil error describes the first
// divergence.
func ZeroFaultEquivalence(name string, p, c int, e Env) error {
	plainRes, plainMem, err := harness.RunAppMem(e.Apps(name), e.Config(p, c))
	if err != nil {
		return fmt.Errorf("zero-fault %s plain: %w", name, err)
	}
	// Seeded but rateless: still empty.
	cfg := e.Config(p, c, harness.WithFaultPlan(fault.Plan{Seed: 12345}))
	attRes, attMem, err := harness.RunAppMem(e.Apps(name), cfg)
	if err != nil {
		return fmt.Errorf("zero-fault %s attached: %w", name, err)
	}
	if !reflect.DeepEqual(plainRes, attRes) {
		return fmt.Errorf("zero-fault %s: results diverge:\nplain:    %+v\nattached: %+v", name, plainRes, attRes)
	}
	if !bytes.Equal(plainMem, attMem) {
		return fmt.Errorf("zero-fault %s: final memory diverges", name)
	}
	return nil
}
