package serve

import (
	"encoding/json"
	"fmt"
	"strings"

	"mgs/internal/harness"
	"mgs/internal/obs"
	"mgs/internal/sim"
)

// LatencyBuckets is the per-request latency histogram layout: geometric
// with ratio 5/4 from 64 cycles to ~32M cycles, fine enough that the
// bucket-interpolated p999 estimate (obs.Histogram.Quantile) stays
// within one ratio step of the exact tail. Built once at init; the
// slice is read-only afterwards.
var LatencyBuckets = latencyBuckets()

func latencyBuckets() []int64 {
	var b []int64
	for x := int64(64); x < 32_000_000; x = x * 5 / 4 {
		b = append(b, x)
	}
	return b
}

// Recorder owns the per-phase latency histograms and op counters,
// registered on the machine's metrics registry.
type Recorder struct {
	// phases and ops are fixed at construction and read-only afterwards.
	phases []*obs.Histogram
	ops    [3]*obs.Counter
	names  []string
}

// NewRecorder registers one latency histogram per phase
// ("serve.lat.<phase>") plus the op counters on reg.
func NewRecorder(reg *obs.Registry, phases []Phase) *Recorder {
	r := &Recorder{}
	for _, ph := range phases {
		r.phases = append(r.phases, reg.Histogram("serve.lat."+ph.Name, LatencyBuckets))
		r.names = append(r.names, ph.Name)
	}
	for op := OpGet; op <= OpScan; op++ {
		r.ops[op] = reg.Counter("serve.ops." + op.String())
	}
	return r
}

// Observe records one served request: its latency in simulated cycles
// (completion minus scheduled arrival — queueing included) into the
// phase's histogram, and the op count.
//
// Must not allocate: pinned by TestRecorderObserveZeroAllocs.
func (r *Recorder) Observe(phase uint8, op Op, lat sim.Time) {
	r.phases[phase].Observe(int64(lat))
	r.ops[op].Add(1)
}

// SLO is a per-phase latency service-level objective in simulated
// cycles; zero fields are unchecked.
type SLO struct {
	P50  float64 `json:"p50,omitempty"`
	P99  float64 `json:"p99,omitempty"`
	P999 float64 `json:"p999,omitempty"`
}

// Empty reports whether no objective is set.
func (s SLO) Empty() bool { return s.P50 == 0 && s.P99 == 0 && s.P999 == 0 }

// PhaseStats is one phase's latency digest.
type PhaseStats struct {
	Phase string  `json:"phase"`
	Count int64   `json:"count"`
	Mean  float64 `json:"mean_cycles"`
	P50   float64 `json:"p50_cycles"`
	P99   float64 `json:"p99_cycles"`
	P999  float64 `json:"p999_cycles"`
	SLOOK bool    `json:"slo_ok"`
}

// Report is the serving run's result document (mgs serve's JSON shape;
// CSV renders the same rows).
type Report struct {
	P          int          `json:"p"`
	C          int          `json:"c"`
	Seed       uint64       `json:"seed"`
	Theta      float64      `json:"theta"`
	Cycles     sim.Time     `json:"cycles"`
	Requests   int64        `json:"requests"`
	Gets       int64        `json:"gets"`
	Puts       int64        `json:"puts"`
	Scans      int64        `json:"scans"`
	LockHits   int64        `json:"lock_hits"`
	LockTotal  int64        `json:"lock_total"`
	Dropped    int64        `json:"dropped_msgs"`
	Retransmit int64        `json:"retransmits"`
	SLO        SLO          `json:"slo"`
	SLOOK      bool         `json:"slo_ok"`
	Phases     []PhaseStats `json:"phases"`
	// Breakdown is the per-request cost attribution (mgs serve
	// -breakdown); nil — and absent from JSON — unless the run was
	// profiled (exp.ServeRunBreakdown).
	Breakdown *CostBreakdown `json:"breakdown,omitempty"`
}

// CostBreakdown attributes a serving run's machine time to request cost
// components: cycles summed across processors per attribution category
// of the cycle profiler, plus the reliable transport's recovery
// accounting. The lock column is time blocked on shard locks, protocol
// is MGS software-coherence work (page faults, release rounds,
// directory traffic), transport is latency paid to message loss
// recovery (timeouts, backoff, delayed first deliveries).
type CostBreakdown struct {
	UserCycles      int64 `json:"user_cycles"`
	LockCycles      int64 `json:"lock_cycles"`
	BarrierCycles   int64 `json:"barrier_cycles"`
	ProtocolCycles  int64 `json:"protocol_cycles"`
	TransportCycles int64 `json:"transport_cycles"`
	// PerRequestCycles is the attributed (non-user) cost per request:
	// (lock + barrier + protocol + transport) / requests.
	PerRequestCycles float64 `json:"per_request_cycles"`
	// HotLocks is the profiler's per-lock attribution, hottest first
	// (top 5): which shard locks the lock cycles concentrate on.
	HotLocks []HotLock `json:"hot_locks,omitempty"`
}

// HotLock is one lock's aggregate attributed cycles.
type HotLock struct {
	ID     int64 `json:"id"`
	Cycles int64 `json:"cycles"`
}

// BreakdownCSVHeader is the column set of BreakdownCSV.
var BreakdownCSVHeader = []string{"component", "cycles", "per_request_cycles"}

// BreakdownCSV renders the breakdown as CSV with a header, one row per
// cost component.
func (r Report) BreakdownCSV() string {
	b := r.Breakdown
	if b == nil {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(BreakdownCSVHeader, ","))
	sb.WriteByte('\n')
	row := func(name string, cycles int64) {
		per := 0.0
		if r.Requests > 0 {
			per = float64(cycles) / float64(r.Requests)
		}
		fmt.Fprintf(&sb, "%s,%d,%.1f\n", name, cycles, per)
	}
	row("user", b.UserCycles)
	row("lock", b.LockCycles)
	row("barrier", b.BarrierCycles)
	row("protocol", b.ProtocolCycles)
	row("transport", b.TransportCycles)
	return sb.String()
}

// sloOK checks one phase digest against the objective.
func (s SLO) sloOK(ps PhaseStats) bool {
	if s.P50 > 0 && ps.P50 > s.P50 {
		return false
	}
	if s.P99 > 0 && ps.P99 > s.P99 {
		return false
	}
	if s.P999 > 0 && ps.P999 > s.P999 {
		return false
	}
	return true
}

// BuildReport digests the recorder's histograms and the run result into
// the report document.
func (r *Recorder) BuildReport(w Workload, res harness.Result, p, c int, slo SLO) Report {
	rep := Report{
		P: p, C: c, Seed: w.Seed, Theta: w.Theta,
		Cycles:     res.Cycles,
		Gets:       r.ops[OpGet].Value(),
		Puts:       r.ops[OpPut].Value(),
		Scans:      r.ops[OpScan].Value(),
		LockHits:   res.LockHits,
		LockTotal:  res.LockTotal,
		Dropped:    res.Fault.Dropped,
		Retransmit: res.Fault.Retransmits,
		SLO:        slo,
		SLOOK:      true,
	}
	rep.Requests = rep.Gets + rep.Puts + rep.Scans
	for i, h := range r.phases {
		n := h.Count()
		ps := PhaseStats{
			Phase: r.names[i],
			Count: n,
			P50:   h.Quantile(0.50),
			P99:   h.Quantile(0.99),
			P999:  h.Quantile(0.999),
		}
		if n > 0 {
			ps.Mean = float64(h.Sum()) / float64(n)
		}
		ps.SLOOK = slo.sloOK(ps)
		if !ps.SLOOK {
			rep.SLOOK = false
		}
		rep.Phases = append(rep.Phases, ps)
	}
	return rep
}

// CSVHeader is the column set of CSV renders, one row per phase.
var CSVHeader = []string{
	"p", "c", "seed", "phase", "count",
	"mean_cycles", "p50_cycles", "p99_cycles", "p999_cycles",
	"lock_hits", "lock_total", "dropped_msgs", "retransmits", "slo_ok",
}

// CSVRows renders the report as CSV records (no header), one per
// phase, with float columns in %.1f so output is bit-stable.
func (r Report) CSVRows() [][]string {
	var rows [][]string
	for _, ps := range r.Phases {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.P), fmt.Sprintf("%d", r.C),
			fmt.Sprintf("%d", r.Seed), ps.Phase,
			fmt.Sprintf("%d", ps.Count),
			fmt.Sprintf("%.1f", ps.Mean),
			fmt.Sprintf("%.1f", ps.P50),
			fmt.Sprintf("%.1f", ps.P99),
			fmt.Sprintf("%.1f", ps.P999),
			fmt.Sprintf("%d", r.LockHits), fmt.Sprintf("%d", r.LockTotal),
			fmt.Sprintf("%d", r.Dropped), fmt.Sprintf("%d", r.Retransmit),
			fmt.Sprintf("%t", ps.SLOOK),
		})
	}
	return rows
}

// CSV renders the report with a header line.
func (r Report) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(CSVHeader, ","))
	b.WriteByte('\n')
	for _, row := range r.CSVRows() {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the report as indented JSON.
func (r Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }
