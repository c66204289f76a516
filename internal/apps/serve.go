package apps

import (
	"fmt"

	"mgs/internal/harness"
	"mgs/internal/serve"
)

// Serve is the online-serving application: a sharded key-value/session
// store in shared simulated memory (internal/serve), driven by a
// deterministic open-loop request trace. Each processor is one front
// end replaying its arrival-ordered queue: it idles until a request's
// scheduled arrival, serves it through the store's shard locks, and
// records completion-minus-arrival — so queueing delay at a backlogged
// front end is part of every latency sample, exactly as in an open-loop
// load test. Unlike the batch SPLASH kernels, the figure of merit is
// not parallel completion time but the latency distribution per traffic
// phase (steady / drift / flash crowd).
type Serve struct {
	// W is the traffic description; zero value means the full-size
	// default workload.
	W serve.Workload

	store  *serve.Store
	trace  serve.Trace
	expect serve.Expect
	rec    *serve.Recorder
	p, c   int
}

const serveBarrier = 0

// NewServe returns the serving app over the given workload.
func NewServe(w serve.Workload) *Serve { return &Serve{W: w} }

// Name implements harness.App.
func (a *Serve) Name() string { return "serve" }

// Setup places the store (shard blocks homed per SSMP), materializes
// the request trace host-side, and registers the latency histograms on
// the machine's metrics registry.
func (a *Serve) Setup(m *harness.Machine) {
	if len(a.W.Phases) == 0 {
		a.W = serve.DefaultWorkload(false, 1)
	}
	a.p, a.c = m.Cfg.P, m.Cfg.C
	a.store = serve.Place(m, a.W.NKeys, serve.DefaultCosts())
	a.trace = a.W.Generate(m.Cfg.P)
	a.expect = a.trace.Expected(a.W.NKeys)
	a.rec = serve.NewRecorder(m.Stats.Registry(), a.W.Phases)
}

// Body replays this processor's open-loop queue.
func (a *Serve) Body(c *harness.Ctx) {
	for _, r := range a.trace.PerProc[c.ID] {
		if r.At > c.Clock() {
			// Idle until the scheduled arrival. If the front end is
			// already past it, the request has been queueing; the wait
			// is in the latency either way.
			c.Proc.Sleep(r.At - c.Clock())
		}
		switch r.Op {
		case serve.OpGet:
			a.store.Get(c, r.Key)
		case serve.OpPut:
			a.store.Put(c, r.Key, r.Val)
		case serve.OpScan:
			a.store.Scan(c, r.Key, a.W.ScanLen)
		}
		a.rec.Observe(r.Phase, r.Op, c.Clock()-r.At)
	}
	c.Barrier(serveBarrier)
}

// Verify checks the store's final records against the host-side
// commutative expectation (put count, sum, xor, and the setup tags),
// and that every generated request was served.
func (a *Serve) Verify(m *harness.Machine) error {
	if err := a.store.VerifyAgainst(m, a.expect); err != nil {
		return err
	}
	served := m.Stats.Counter("serve.ops.get") +
		m.Stats.Counter("serve.ops.put") +
		m.Stats.Counter("serve.ops.scan")
	if want := int64(len(a.trace.Reqs)); served != want {
		return fmt.Errorf("served %d requests, trace has %d", served, want)
	}
	return nil
}

// Report digests the run into the per-phase latency report. Call after
// the machine ran.
func (a *Serve) Report(res harness.Result, slo serve.SLO) serve.Report {
	return a.rec.BuildReport(a.W, res, a.p, a.c, slo)
}
