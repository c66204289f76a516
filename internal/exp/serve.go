package exp

import (
	"bytes"
	"fmt"
	"strings"

	"mgs/internal/apps"
	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/obs"
	"mgs/internal/serve"
	"mgs/internal/stats"
)

// Serving-workload experiments: the online store (internal/serve) under
// the open-loop traffic schedule, measured by tail latency per phase
// instead of completion time. The headline experiment is ServeTailSweep:
// how the p99/p999 latency of the same offered traffic degrades as the
// machine is partitioned into more clusters (more shard-lock and page
// traffic crossing the software layer), and how much further a lossy
// interconnect fattens the tail — while the final memory image stays
// byte-identical to the fault-free run.

// ServeRun runs the serving app under the given workload on the
// machine cfg describes (its fault plan included), returning the
// latency report and the final shared-memory image.
func ServeRun(w serve.Workload, cfg harness.Config, slo serve.SLO) (serve.Report, []byte, error) {
	app := apps.NewServe(w)
	res, mem, err := harness.RunAppMem(app, cfg)
	if err != nil {
		return serve.Report{}, nil, err
	}
	return app.Report(res, slo), mem, nil
}

// ServeRunBreakdown is ServeRun with the cycle-attribution profiler
// armed in place of cfg's observer: the returned report carries a
// CostBreakdown splitting the run's cycles into user compute,
// shard-lock wait, barrier wait, MGS protocol work, and transport-fault
// recovery, plus the per-lock heat ranking (mgs serve -breakdown).
func ServeRunBreakdown(w serve.Workload, cfg harness.Config, slo serve.SLO) (serve.Report, []byte, error) {
	app := apps.NewServe(w)
	o := obs.New().EnableProfiling()
	cfg.Obs = o
	res, mem, err := harness.RunAppMem(app, cfg)
	if err != nil {
		return serve.Report{}, nil, err
	}
	rep := app.Report(res, slo)
	bd := &serve.CostBreakdown{TransportCycles: res.Fault.RecoveryCycles}
	for _, row := range o.Profiler().Totals() {
		bd.UserCycles += int64(row[stats.User])
		bd.LockCycles += int64(row[stats.Lock])
		bd.BarrierCycles += int64(row[stats.Barrier])
		bd.ProtocolCycles += int64(row[stats.MGS])
	}
	if rep.Requests > 0 {
		bd.PerRequestCycles = float64(bd.LockCycles+bd.BarrierCycles+
			bd.ProtocolCycles+bd.TransportCycles) / float64(rep.Requests)
	}
	for i, h := range o.Profiler().Heat(obs.ObjLock) {
		if i == 5 {
			break
		}
		bd.HotLocks = append(bd.HotLocks, serve.HotLock{ID: h.ID, Cycles: int64(h.Cycles)})
	}
	rep.Breakdown = bd
	return rep, mem, nil
}

// ServeChaosPlan is the serving experiments' fault schedule: 5% message
// loss (the ISSUE's operating envelope ceiling), no duplication or
// delay, so the tail movement is attributable to retransmission alone.
func ServeChaosPlan(seed uint64) fault.Plan {
	return fault.Plan{Seed: seed, DropBP: 500}
}

// ServeTailPoint is one cluster size of the tail-latency sweep:
// fault-free and 5%-loss columns for the same workload, plus the
// memory-equivalence verdict between them.
type ServeTailPoint struct {
	C     int
	Clean serve.Report
	Chaos serve.Report
	// MemOK reports that the chaos run's final memory was byte-identical
	// to the fault-free run at the same C.
	MemOK bool
}

// ServeTailSweep runs the workload at every power-of-two cluster size up
// to p, fault-free and under ServeChaosPlan, concurrently (results are
// independent of the width). The workload is w, so e.Apps is not
// consulted.
func ServeTailSweep(w serve.Workload, p int, slo serve.SLO, e Env) ([]ServeTailPoint, error) {
	cs := harness.PowersOfTwo(p)
	type cell struct {
		rep serve.Report
		mem []byte
	}
	cells := make([]cell, 2*len(cs)) // [2k] fault-free, [2k+1] chaos
	err := e.each(len(cells), func(i int) error {
		c, chaos := cs[i/2], i%2 == 1
		var plan fault.Plan
		if chaos {
			plan = ServeChaosPlan(w.Seed)
		}
		rep, mem, err := ServeRun(w, e.Config(p, c, harness.WithFaultPlan(plan)), slo)
		if err != nil {
			return fmt.Errorf("serve sweep C=%d chaos=%t: %w", c, chaos, err)
		}
		cells[i] = cell{rep, mem}
		return nil
	})
	if err != nil {
		return nil, err
	}
	points := make([]ServeTailPoint, len(cs))
	for k, c := range cs {
		clean, ch := cells[2*k], cells[2*k+1]
		points[k] = ServeTailPoint{
			C: c, Clean: clean.rep, Chaos: ch.rep,
			MemOK: bytes.Equal(clean.mem, ch.mem),
		}
	}
	return points, nil
}

// ServeTailCSVHeader is the sweep render's column set.
var ServeTailCSVHeader = []string{
	"p", "c", "variant", "phase", "count",
	"mean_cycles", "p50_cycles", "p99_cycles", "p999_cycles",
	"dropped_msgs", "retransmits", "mem_ok",
}

// ServeTailCSV renders the sweep, one row per (cluster size, variant,
// phase), floats in %.1f so the output is bit-stable.
func ServeTailCSV(points []ServeTailPoint) string {
	var b strings.Builder
	b.WriteString(strings.Join(ServeTailCSVHeader, ","))
	b.WriteByte('\n')
	row := func(pt ServeTailPoint, variant string, rep serve.Report) {
		for _, ps := range rep.Phases {
			fmt.Fprintf(&b, "%d,%d,%s,%s,%d,%.1f,%.1f,%.1f,%.1f,%d,%d,%t\n",
				rep.P, pt.C, variant, ps.Phase, ps.Count,
				ps.Mean, ps.P50, ps.P99, ps.P999,
				rep.Dropped, rep.Retransmit, pt.MemOK)
		}
	}
	for _, pt := range points {
		row(pt, "clean", pt.Clean)
		row(pt, "chaos", pt.Chaos)
	}
	return b.String()
}
