// Package serve layers an online-serving workload family on top of the
// DSM: a sharded key-value/session store whose records live in shared
// simulated memory (store.go), driven by a deterministic open-loop load
// generator (this file), with per-request latency recorded into
// virtual-time histograms and reported as p50/p99/p999 per traffic
// phase (report.go).
//
// The paper's pitch (§1) is multigrain shared memory on commodity
// clusters — exactly the substrate modern serving traffic lives on.
// Every workload here is open loop: request *arrival* times are
// scheduled in virtual cycles up front, independent of completion, so
// when a front-end processor falls behind, the backlog shows up as real
// queueing delay in the latency distribution instead of silently
// throttling the offered load (the closed-loop fallacy).
//
// Determinism: like internal/fault, every random decision draws from a
// splitmix64 stream seeded purely by the workload seed, and the entire
// request trace is materialized host-side before the simulation starts.
// Nothing on the simulated path draws randomness; the module's
// TestDeterminismPolicy covers the package.
package serve

import (
	"iter"

	"mgs/internal/sim"
)

// Op is a request type.
type Op uint8

const (
	// OpGet reads one record.
	OpGet Op = iota
	// OpPut updates one record (commutatively — see store.go).
	OpPut
	// OpScan reads a run of consecutive records within one shard.
	OpScan
)

var opNames = [...]string{"get", "put", "scan"}

// String names the op.
func (o Op) String() string { return opNames[o] }

// PhaseKind selects a traffic pattern.
type PhaseKind uint8

const (
	// Steady is stationary Zipf-skewed traffic over the whole keyspace.
	Steady PhaseKind = iota
	// Drift rotates the hot set through the keyspace over time
	// (working-set drift: yesterday's hot sessions go cold).
	Drift
	// Flash concentrates a rate burst on a small fraction of the
	// keyspace (a flash crowd on a few hot sessions).
	Flash
)

var phaseKindNames = [...]string{"steady", "drift", "flash"}

// String names the kind.
func (k PhaseKind) String() string { return phaseKindNames[k] }

// Phase is one segment of the traffic schedule.
type Phase struct {
	// Name labels the phase in reports and metric names; it must be
	// unique within a workload.
	Name string
	// Kind selects the pattern.
	Kind PhaseKind
	// Cycles is the phase duration in virtual cycles.
	Cycles sim.Time
	// MeanGap is the machine-wide mean inter-arrival gap in cycles
	// (offered load = one request per MeanGap cycles, spread round-robin
	// across front-end processors).
	MeanGap sim.Time
	// HotFrac (Flash only) is the fraction of the keyspace the crowd
	// targets; zero means 1/64.
	HotFrac float64
	// DriftPeriod (Drift only) is how often the hot set rotates one
	// step; zero means Cycles/8.
	DriftPeriod sim.Time
}

// Workload is a deterministic serving traffic description.
type Workload struct {
	// Seed selects the pseudo-random schedule; two generations with the
	// same seed produce identical traces.
	Seed uint64
	// NKeys is the keyspace size; it must be a power of two (the hot-key
	// permutation relies on it).
	NKeys int
	// GetBP and ScanBP set the op mix in basis points (parts per
	// 10,000); the remainder are puts.
	GetBP, ScanBP int
	// ScanLen is the record count of one scan.
	ScanLen int
	// Theta is the Zipf skew exponent (0 = uniform; ~0.9 = classic
	// hot-key skew), in [0, MaxTheta].
	Theta float64
	// Phases is the traffic schedule, run back to back.
	Phases []Phase
}

// Request is one generated request: a key operation arriving at an
// absolute virtual time, pre-assigned to a front-end processor.
type Request struct {
	At    sim.Time // scheduled arrival, in virtual cycles
	Val   uint64   // put payload
	Key   int32
	Op    Op
	Phase uint8 // index into Workload.Phases
}

// Trace is a materialized request schedule for a machine of nprocs
// front-end processors, as Generate makes it.
type Trace struct {
	// Reqs is every request in arrival order.
	Reqs   []Request
	nprocs int
}

// Queue is front-end processor p's arrival-ordered queue: Reqs
// partitioned round-robin by arrival index, so it yields requests p,
// p+nprocs, p+2·nprocs, … of Reqs, read in place.
func (tr Trace) Queue(p int) iter.Seq[Request] {
	return func(yield func(Request) bool) {
		for i := p; i < len(tr.Reqs); i += tr.nprocs {
			if !yield(tr.Reqs[i]) {
				return
			}
		}
	}
}

// mix64 is the splitmix64 finalizer (same bijection internal/fault
// uses; duplicated to keep the packages decoupled).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// stream is a splitmix64 draw sequence.
type stream struct{ x uint64 }

func (s *stream) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	return mix64(s.x)
}

// unit draws a float in [0, 1) with 53 random bits.
func (s *stream) unit() float64 { return float64(s.next()>>11) / (1 << 53) }

// MaxTheta bounds Workload.Theta. At theta = 1075 the weight of rank 1,
// 2^-1075, already rounds to 0 in float64, and so does every later
// rank's: a larger exponent generates the same all-rank-0 trace, and
// ipow's loop is linear in theta.
const MaxTheta = 1075

// zipfCDF precomputes the cumulative distribution of ranks 0..n-1 with
// weight (r+1)^-theta. theta = 0 degenerates to uniform.
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += ipow(1/float64(r+1), theta)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// ipow computes x^theta via exp/log-free binary decomposition on the
// integer part plus a short Newton-free series for the fraction — but
// precision hardly matters for a synthetic skew, so we use the simple
// repeated-sqrt decomposition: x^theta = x^i · x^f with f in [0,1)
// approximated by 16 square-root bits. Deterministic (pure float64
// arithmetic, no math.Pow libm variance across Go versions).
func ipow(x, theta float64) float64 {
	if theta <= 0 {
		return 1
	}
	i := int(theta)
	out := 1.0
	for k := 0; k < i; k++ {
		out *= x
	}
	f := theta - float64(i)
	// x^f: consume f bit by bit; sq tracks x^(1/2^k).
	sq := x
	for k := 0; k < 16 && f > 0; k++ {
		sq = sqrt(sq)
		f *= 2
		if f >= 1 {
			out *= sq
			f -= 1
		}
	}
	return out
}

// sqrt is Newton's method on float64 — deterministic everywhere,
// independent of libm.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		nz := 0.5 * (z + x/z)
		if nz == z {
			break
		}
		z = nz
	}
	return z
}

// rankOf inverts the CDF by binary search: the least rank whose
// cumulative weight reaches u.
func rankOf(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// knuth is an odd multiplier; for power-of-two NKeys, rank·knuth mod
// NKeys is a bijection, spreading popularity ranks across the keyspace
// (and therefore across shards) deterministically.
const knuth = 2654435761

// hotN returns the flash-crowd target size.
func (ph Phase) hotN(nkeys int) int {
	f := ph.HotFrac
	if f <= 0 {
		f = 1.0 / 64
	}
	n := int(f * float64(nkeys))
	if n < 1 {
		n = 1
	}
	return n
}

// driftPeriod returns the hot-set rotation period.
func (ph Phase) driftPeriod() sim.Time {
	if ph.DriftPeriod > 0 {
		return ph.DriftPeriod
	}
	return ph.Cycles / 8
}

// gap draws the next inter-arrival gap of phase ph: uniform in
// [1, 2·MeanGap-1], mean MeanGap.
func (s *stream) gap(ph Phase) sim.Time {
	if ph.MeanGap > 1 {
		return 1 + sim.Time(s.next()%uint64(2*ph.MeanGap-1))
	}
	return 1
}

// drawsPerRequest is how many draws Generate takes from the stream for
// one request after its gap: its rank, its op and its put payload.
const drawsPerRequest = 3

// count returns how many requests Generate makes from stream s: it
// takes the same draws, computing nothing from those after each gap.
func (w Workload) count(s stream) int {
	n := 0
	start := sim.Time(0)
	for _, ph := range w.Phases {
		end := start + ph.Cycles
		for at := start + s.gap(ph); at < end; at += s.gap(ph) {
			for range drawsPerRequest {
				s.next()
			}
			n++
		}
		start = end
	}
	return n
}

// Generate materializes the request trace for a machine with nprocs
// front-end processors. The generation is a pure function of the
// workload (seed included) and nprocs; it runs host-side with no
// simulated cost. It counts the requests first, so Reqs is allocated
// once at its final length; the per-processor queues are read from it
// (Queue).
func (w Workload) Generate(nprocs int) Trace {
	if w.NKeys <= 0 || w.NKeys&(w.NKeys-1) != 0 {
		panic("serve: NKeys must be a positive power of two")
	}
	mask := uint64(w.NKeys - 1)
	full := zipfCDF(w.NKeys, w.Theta)
	s := stream{x: mix64(w.Seed ^ 0x5e5ec0de)}
	reqs := make([]Request, 0, w.count(s))
	start := sim.Time(0)
	for pi, ph := range w.Phases {
		end := start + ph.Cycles
		cdf := full
		if ph.Kind == Flash {
			cdf = zipfCDF(ph.hotN(w.NKeys), w.Theta)
		}
		driftStep := uint64(w.NKeys/64 + 1)
		for at := start + s.gap(ph); at < end; at += s.gap(ph) {
			rank := rankOf(cdf, s.unit())
			key := uint64(rank) * knuth & mask
			if ph.Kind == Drift {
				// Rotate the whole popularity mapping one step per
				// period: the hot set walks through the keyspace.
				key = (key + uint64((at-start)/ph.driftPeriod())*driftStep) & mask
			}
			op := OpPut
			if v := s.next() % 10000; v < uint64(w.GetBP) {
				op = OpGet
			} else if v < uint64(w.GetBP+w.ScanBP) {
				op = OpScan
			}
			reqs = append(reqs, Request{
				At: at, Key: int32(key), Op: op, Val: s.next(), Phase: uint8(pi),
			})
		}
		start = end
	}
	return Trace{Reqs: reqs, nprocs: nprocs}
}

// Expect is the host-side reference for the store's final state: puts
// are commutative (count, sum, xor), so the expectation is independent
// of the order in which the simulated processors win the shard locks.
type Expect struct {
	Count []int64
	Sum   []uint64
	Xor   []uint64
}

// Expected folds every put in the trace into the per-key reference.
func (tr Trace) Expected(nkeys int) Expect {
	e := Expect{
		Count: make([]int64, nkeys),
		Sum:   make([]uint64, nkeys),
		Xor:   make([]uint64, nkeys),
	}
	for _, r := range tr.Reqs {
		if r.Op != OpPut {
			continue
		}
		e.Count[r.Key]++
		e.Sum[r.Key] += r.Val
		e.Xor[r.Key] ^= r.Val
	}
	return e
}
