package harness

import (
	"errors"
	"fmt"
)

// App is a shared-memory application runnable on a Machine. Setup
// allocates and initializes shared data (no simulated cost — the paper
// measures the parallel section), Body runs on every processor, and
// Verify checks the computed result against a host-side reference so
// protocol bugs surface as wrong answers.
type App interface {
	Name() string
	Setup(m *Machine)
	Body(c *Ctx)
	Verify(m *Machine) error
}

// RunApp builds a machine, runs the app, verifies the answer, and
// returns the result. A nil app, or a configuration that fails
// Validate, is an error, not a panic.
func RunApp(app App, cfg Config) (Result, error) {
	res, _, err := runApp(app, cfg)
	return res, err
}

// RunAppMem is RunApp, additionally returning the final shared-memory
// image (core.System.SnapshotMemory) after verification. The chaos
// harness compares the image of a faulty run byte-for-byte against the
// fault-free baseline's.
func RunAppMem(app App, cfg Config) (Result, []byte, error) {
	res, m, err := runApp(app, cfg)
	if err != nil {
		return res, nil, err
	}
	return res, m.DSM.SnapshotMemory(), nil
}

// runApp is the one build → setup → run → verify sequence.
func runApp(app App, cfg Config) (Result, *Machine, error) {
	if app == nil {
		return Result{}, nil, errors.New("harness: nil app")
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, nil, fmt.Errorf("%s: %w", app.Name(), err)
	}
	m := NewMachine(cfg)
	app.Setup(m)
	res, err := m.Run(app.Body)
	if err != nil {
		return res, nil, fmt.Errorf("%s: %w", app.Name(), err)
	}
	if err := app.Verify(m); err != nil {
		return res, nil, fmt.Errorf("%s: verification failed: %w", app.Name(), err)
	}
	return res, m, nil
}

// SweepPoint is one cluster size's outcome.
type SweepPoint struct {
	C   int
	Res Result
}

// Sweep runs a fresh instance of the app at every cluster size in cs —
// the paper's Figures 6–10 methodology; cfgFor fixes P. mk must return
// a fresh App (apps hold machine-bound addresses). Up to width points
// run concurrently (RunIndexed); each point is an independent Engine,
// so the results do not depend on the width.
func Sweep(width int, mk func() App, cs []int, cfgFor func(c int) Config) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(cs))
	errs := RunIndexed(width, len(cs), func(i int) error {
		res, err := RunApp(mk(), cfgFor(cs[i]))
		if err != nil {
			return err
		}
		out[i] = SweepPoint{C: cs[i], Res: res}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return out[:i], fmt.Errorf("C=%d: %w", cs[i], err)
		}
	}
	return out, nil
}

// PowersOfTwo returns 1, 2, 4, ..., p.
func PowersOfTwo(p int) []int {
	var cs []int
	for c := 1; c <= p; c *= 2 {
		cs = append(cs, c)
	}
	return cs
}
