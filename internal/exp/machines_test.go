package exp

import (
	"bytes"
	_ "embed"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mgs/internal/core"
	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/msync/algo"
	"mgs/internal/obs"
	"mgs/internal/vm"
)

// The machine table: every differential oracle in this package iterates
// one table of machines (DESIGN.md §14). Its factors are the registries
// — applications, protocol variants, lock and barrier algorithms,
// topologies — plus machine shape, page size, a fault plan and message
// jitter, so a new registry entry reaches every oracle without a list
// to edit. The rows cover every pair of factor values, not the product:
// a lock's cost argument changes with the memory model under it, so
// every algorithm must meet every topology and every variant.
//
// Rows are pinned: testdata/machines names each row with its seed, and
// a pinned row whose values all still exist keeps its name and seed, so
// its subtests and its run survive a registry edit. Deleting a value
// drops only the rows holding it, unless the line gives, after the
// name, the values the row runs instead: a row whose run never used
// the deleted mechanism keeps its name, seed and run that way. Rows for
// the pairs no pinned row covers (a new value's, or those only a
// dropped row held) are generated after them.

//go:embed testdata/machines
var pinnedRows string

// factor is one axis of the table.
type factor struct {
	name   string
	values []string
}

// heavyApp costs 50–140 ms a run where every other application costs
// 1–7 ms, so it is no value of the app factor: machineTable adds it on
// one row.
const heavyApp = "water-kernel"

const envelope, jittered = "envelope", "jitter"

// factors lists the table's axes, largest first.
func factors() []factor {
	var variants []string
	for _, v := range core.Variants() {
		variants = append(variants, v.Name)
	}
	return []factor{
		{"app", slices.DeleteFunc(slices.Clone(AllAppNames), func(a string) bool { return a == heavyApp })},
		{"variant", variants},
		{"shape", []string{"4x1", "4x2", "8x2", "8x4", "16x4"}},
		{"barrier", algo.BarrierNames()},
		{"lock", algo.LockNames()},
		{"topology", msg.TopologyNames()},
		{"page", []string{"512", "1024", "2048"}},
		{"fault", []string{"no-fault", envelope}},
		{"jitter", []string{"steady", jittered}},
	}
}

// pairwise extends rows, each of value indices, one per factor, until
// they hold every pair of values of two factors. Greedy and
// deterministic: each new row starts from the first pair not yet
// covered and gives every other factor the value covering the most new
// pairs against the factors already set, ties going to the value fewest
// rows have had.
func pairwise(sizes []int, rows [][]int) [][]int {
	type pair struct{ i, a, j, b int }
	var order []pair
	for i := range sizes {
		for j := i + 1; j < len(sizes); j++ {
			for a := 0; a < sizes[i]; a++ {
				for b := 0; b < sizes[j]; b++ {
					order = append(order, pair{i, a, j, b})
				}
			}
		}
	}
	covered := map[pair]bool{}
	used := map[[2]int]int{} // (factor, value) → rows holding it
	mark := func(row []int) {
		for i, a := range row {
			used[[2]int{i, a}]++
			for j := i + 1; j < len(row); j++ {
				covered[pair{i, a, j, row[j]}] = true
			}
		}
	}
	for _, row := range rows {
		mark(row)
	}
	for _, start := range order {
		if covered[start] {
			continue
		}
		row := slices.Repeat([]int{-1}, len(sizes))
		row[start.i], row[start.j] = start.a, start.b
		gain := func(k, v int) (g int) {
			for o, w := range row {
				if w >= 0 && (o < k && !covered[pair{o, w, k, v}] || o > k && !covered[pair{k, v, o, w}]) {
					g++
				}
			}
			return g
		}
		for k := range row {
			if row[k] >= 0 {
				continue
			}
			best := 0
			for v := 1; v < sizes[k]; v++ {
				if g, bg := gain(k, v), gain(k, best); g > bg || g == bg && used[[2]int{k, v}] < used[[2]int{k, best}] {
					best = v
				}
			}
			row[k] = best
		}
		mark(row)
		rows = append(rows, row)
	}
	return rows
}

// machine is one row: an application on one configured machine.
type machine struct {
	name string
	vals map[string]string // factor name → this row's value
	seed uint64            // the row's jitter and fault-plan seed
}

// machineTable is the pinned rows that still exist, the pairwise rows
// that complete them, then heavyApp on a copy of the jittered update row
// with the fewest SSMPs (the first, on a tie) — the machine it must
// meet, message reordering under the update protocol, at its cheapest.
// A row is named by its values in factor order; a row the file does not
// pin takes the next seed past the largest pinned one.
var machineTable = func() []machine {
	fs := factors()
	var sizes []int
	for _, f := range fs {
		sizes = append(sizes, len(f.values))
	}
	var rows [][]int
	var seeds []uint64
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(pinnedRows), "\n") {
		seed, rest, _ := strings.Cut(line, " ")
		name, runs, moved := strings.Cut(rest, " ")
		if !moved {
			runs = name
		}
		vals := strings.Split(runs, ",")
		if len(vals) != len(fs) {
			continue
		}
		row := make([]int, len(fs))
		for k, f := range fs {
			row[k] = slices.Index(f.values, vals[k])
		}
		if slices.Contains(row, -1) {
			continue // a value the registries no longer hold
		}
		n, _ := strconv.ParseUint(seed, 10, 64)
		rows, seeds, names = append(rows, row), append(seeds, n), append(names, name)
	}
	rows = pairwise(sizes, rows)
	for len(seeds) <= len(rows) { // the generated rows' and heavyApp's
		seeds = append(seeds, slices.Max(seeds)+1)
	}
	var out []machine
	add := func(vals map[string]string) {
		var name []string
		for _, f := range fs {
			name = append(name, vals[f.name])
		}
		if len(out) < len(names) {
			name = names[len(out) : len(out)+1]
		}
		out = append(out, machine{strings.Join(name, ","), vals, seeds[len(out)]})
	}
	for _, idx := range rows {
		vals := map[string]string{}
		for k, f := range fs {
			vals[f.name] = f.values[idx[k]]
		}
		add(vals)
	}
	heavy := -1
	for i, r := range out {
		if r.vals["variant"] == core.VariantUpdate && r.vals["jitter"] == jittered &&
			(heavy < 0 || r.ssmps() < out[heavy].ssmps()) {
			heavy = i
		}
	}
	vals := maps.Clone(out[heavy].vals)
	vals["app"] = heavyApp
	add(vals)
	return out
}()

func (r machine) shape() (p, c int) {
	fmt.Sscanf(r.vals["shape"], "%dx%d", &p, &c)
	return p, c
}

func (r machine) ssmps() int {
	p, c := r.shape()
	return p / c
}

func (r machine) variant() core.Variant {
	for _, nv := range core.Variants() {
		if nv.Name == r.vals["variant"] {
			return nv.Variant
		}
	}
	panic("no variant " + r.vals["variant"])
}

// config returns the row's machine configuration, extra applied last.
func (r machine) config(extra ...harness.Option) harness.Config {
	p, c := r.shape()
	page, _ := strconv.Atoi(r.vals["page"])
	topo, err := msg.ByName(r.vals["topology"])
	if err != nil {
		panic(err)
	}
	cfg := harness.NewConfig(p, c, harness.WithTopology(topo), harness.WithPageSize(page),
		harness.WithLockAlgo(r.vals["lock"]), harness.WithBarrierAlgo(r.vals["barrier"]))
	cfg.Variant = r.variant()
	if r.vals["fault"] == envelope {
		cfg.Fault = envelopePlan(r.seed)
	}
	if r.vals["jitter"] == jittered {
		cfg.Msg.Jitter, cfg.Msg.JitterSeed = 2000, r.seed
	}
	for _, o := range extra {
		o(&cfg)
	}
	return cfg
}

// run is one verified application run.
type run struct {
	res       harness.Result
	mem       []byte
	quiescent error // m.Sync.Quiescent, then m.DSM.Quiescent, at the end
}

// runOn runs the named application on cfg's machine, verifies the
// answer and snapshots memory.
func runOn(t *testing.T, name string, cfg harness.Config) run {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	app, m := SmallApp(name), harness.NewMachine(cfg)
	app.Setup(m)
	res, err := m.Run(app.Body)
	if err == nil {
		err = app.Verify(m)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	q := m.Sync.Quiescent()
	if q == nil {
		q = m.DSM.Quiescent()
	}
	return run{res, m.DSM.SnapshotMemory(), q}
}

// baseRuns and shadowRuns cache each row's application run and
// locked-counter run as configured, which several oracles read.
var (
	baseRuns   = map[string]run{}
	shadowRuns = map[string]counterRun{}
)

func base(t *testing.T, r machine) run {
	t.Helper()
	if _, ok := baseRuns[r.name]; !ok {
		baseRuns[r.name] = runOn(t, r.vals["app"], r.config())
	}
	return baseRuns[r.name]
}

func shadowRun(t *testing.T, r machine) counterRun {
	t.Helper()
	if _, ok := shadowRuns[r.name]; !ok {
		shadowRuns[r.name] = lockedCounters(t, r.config())
	}
	return shadowRuns[r.name]
}

// eachRow runs check as a subtest per row.
func eachRow(t *testing.T, check func(t *testing.T, r machine)) {
	for _, r := range machineTable {
		t.Run(r.name, func(t *testing.T) { check(t, r) })
	}
}

// measure reads a named counter, or the fault or link-wait total.
func measure(res harness.Result, name string) int64 {
	switch name {
	case "Fault.Dropped":
		return res.Fault.Dropped
	case "LinkWait":
		return res.LinkWait
	}
	for _, kv := range res.Counters {
		if v, ok := strings.CutPrefix(kv, name+"="); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

// proofs names the measurements that show the row's mechanisms ran:
// each must be positive, or, for an ablation that removes one, zero.
func (r machine) proofs() map[string]bool {
	want := map[string]bool{}
	switch v := r.variant(); {
	case v.UpdateProtocol:
		want["upd.refresh"] = true
	case v.LazyRelease:
		want["lrel"] = true
	case !v.SingleWriter:
		want["inv"], want["1winv"] = true, false
	}
	if r.vals["fault"] == envelope {
		want["Fault.Dropped"] = true
	}
	if r.vals["topology"] != "uniform" {
		want["LinkWait"] = true
	}
	return want
}

// TestMachineTable: the rows cover every pair of factor values; each
// row's application run ends with every lock and barrier quiescent and
// every protocol request answered (Table 1's pairs balance); and
// its application and locked-counter runs prove its variant, fault plan
// and topology ran.
func TestMachineTable(t *testing.T) {
	t.Run("pairwise", func(t *testing.T) {
		fs := factors()
		for i, f := range fs {
			for _, g := range fs[i+1:] {
				for _, a := range f.values {
					for _, b := range g.values {
						if !slices.ContainsFunc(machineTable, func(r machine) bool { return r.vals[f.name] == a && r.vals[g.name] == b }) {
							t.Errorf("no row has %s=%s with %s=%s", f.name, a, g.name, b)
						}
					}
				}
			}
		}
	})
	eachRow(t, func(t *testing.T, r machine) {
		app, counters := base(t, r), shadowRun(t, r).res
		if app.quiescent != nil {
			t.Errorf("not quiescent after the run: %v", app.quiescent)
		}
		for name, positive := range r.proofs() {
			if got := measure(app.res, name) + measure(counters, name); positive != (got > 0) {
				t.Errorf("%s = %d, want it %s: the mechanism did not run as named", name, got, map[bool]string{true: "positive", false: "zero"}[positive])
			}
		}
	})
}

// conformanceWords runs the random conformance workload — data-race-
// free slot writes plus a lock-protected counter — on cfg's machine and
// returns the final words, which depend on the shape alone.
func conformanceWords(t *testing.T, cfg harness.Config) []uint64 {
	t.Helper()
	const npages, slots, steps = 4, 8, 50
	m := harness.NewMachine(cfg)
	at := m.DSM.Space().AllocPages(npages * 4096) // independent of page size
	slotVA := func(proc, slot int) vm.Addr { return at + vm.Addr((slot*cfg.P+proc)*8) }
	ctr := at + vm.Addr(npages*4096-8)
	_, err := m.Run(func(ctx *harness.Ctx) {
		rng := rand.New(rand.NewSource(int64(1000 + ctx.ID)))
		for s := 0; s < steps; s++ {
			// Own slots only (DRF); occasional reads of others'.
			ctx.StoreI64(slotVA(ctx.ID, rng.Intn(slots)), int64(rng.Uint64()))
			if rng.Intn(4) == 0 {
				ctx.Fence()
			}
			if rng.Intn(3) == 0 {
				ctx.LoadI64(slotVA(rng.Intn(cfg.P), rng.Intn(slots)))
			}
			if rng.Intn(9) == 0 {
				ctx.Acquire(5)
				ctx.StoreI64(ctr, ctx.LoadI64(ctr)+1)
				ctx.Release(5)
			}
		}
		ctx.Barrier(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for proc := 0; proc < cfg.P; proc++ {
		for slot := 0; slot < slots; slot++ {
			out = append(out, m.DSM.BackdoorLoad64(slotVA(proc, slot)))
		}
	}
	return append(out, m.DSM.BackdoorLoad64(ctr))
}

// defaultWords caches the default machine's conformance words by shape.
var defaultWords = map[string][]uint64{}

// conforms requires cfg's conformance words to equal the default
// machine's (harness.NewConfig) at the row's shape.
func conforms(t *testing.T, r machine, cfg harness.Config) {
	t.Helper()
	if _, ok := defaultWords[r.vals["shape"]]; !ok {
		defaultWords[r.vals["shape"]] = conformanceWords(t, harness.NewConfig(r.shape()))
	}
	if got, ref := conformanceWords(t, cfg), defaultWords[r.vals["shape"]]; !slices.Equal(got, ref) {
		i := 0
		for got[i] == ref[i] {
			i++
		}
		t.Errorf("%s: word %d = %#x, default machine = %#x", r.name, i, got[i], ref[i])
	}
}

// TestProtocolConformance: on every row as configured, the conformance
// workload ends with the default machine's words. Timing may differ
// arbitrarily; answers may not.
func TestProtocolConformance(t *testing.T) {
	eachRow(t, func(t *testing.T, r machine) { conforms(t, r, r.config()) })
}

// TestConformanceFaultCrossProduct crosses every protocol variant with
// fault injection: each variant's rows run the conformance workload
// fault-free and under 5% message drop, and each must end with the
// fault-free default machine's words. Faults may change when the
// protocol acts, never what memory holds.
func TestConformanceFaultCrossProduct(t *testing.T) {
	for _, nv := range core.Variants() {
		t.Run(nv.Name, func(t *testing.T) {
			for _, pl := range []struct {
				name string
				plan func(seed uint64) fault.Plan
			}{{"no-fault", func(uint64) fault.Plan { return fault.Plan{} }}, {"drop5", LossPlan}} {
				t.Run(pl.name, func(t *testing.T) {
					for _, r := range machineTable {
						if r.vals["variant"] == nv.Name {
							conforms(t, r, r.config(harness.WithFaultPlan(pl.plan(r.seed))))
						}
					}
				})
			}
		})
	}
}

// TestLazyAppsVerify: every application verifies its numeric result on
// every row that runs it, so a stale read that matters fails the run;
// and every application has a row under lazy release consistency.
func TestLazyAppsVerify(t *testing.T) {
	for _, name := range AllAppNames {
		t.Run(name, func(t *testing.T) {
			lazy := false
			for _, r := range machineTable {
				if r.vals["app"] == name {
					base(t, r)
					lazy = lazy || r.vals["variant"] == core.VariantLazy
				}
			}
			if !lazy && name != heavyApp {
				t.Errorf("no row runs %s under %s", name, core.VariantLazy)
			}
		})
	}
}

// TestDeterministicReplay: a rerun gives a DeepEqual Result — cycles,
// breakdown, lock stats, counters, fault accounting, engine counts —
// and the same memory. Jitter and faults reorder deterministically.
func TestDeterministicReplay(t *testing.T) {
	eachRow(t, func(t *testing.T, r machine) {
		a, b := base(t, r), runOn(t, r.vals["app"], r.config())
		if !reflect.DeepEqual(a.res, b.res) || !bytes.Equal(a.mem, b.mem) {
			t.Errorf("rerun diverges\nfirst:  %+v\nsecond: %+v", a.res, b.res)
		}
	})
}

// TestObserversDoNotPerturbRun: arming an instrument changes what is
// recorded about a run, never the run — metrics, a tracer and the cycle
// profiler armed together yield the bare Result. The rows reach every
// emitter: each variant, the reliable transport under the envelope,
// each topology and each lock and barrier. An emit site that changes
// state only while observed fails here, naming the row.
func TestObserversDoNotPerturbRun(t *testing.T) {
	eachRow(t, func(t *testing.T, r machine) {
		// The sink keeps nothing: every emit site runs, and no host time
		// goes to formatting.
		armed := obs.New().AddSink(obs.FuncSink(func(obs.Event) {})).EnableProfiling()
		bare, res := base(t, r).res, runOn(t, r.vals["app"], r.config(harness.WithObserver(armed))).res
		if !reflect.DeepEqual(bare, res) {
			t.Errorf("the metrics+tracer+profiler observer perturbs the run\nbare:  %+v\narmed: %+v", bare, res)
		}
	})
}

// TestTopologyChaosMemEquivalence: on every row, so every topology, the
// application ends with byte-identical memory fault-free and under the
// envelope plan (5% loss, 2% duplication, 5% delayed), its own oracle
// passing both times.
func TestTopologyChaosMemEquivalence(t *testing.T) {
	var dropped int64
	eachRow(t, func(t *testing.T, r machine) {
		free, lossy := base(t, r), base(t, r)
		if r.vals["fault"] == envelope {
			free = runOn(t, r.vals["app"], r.config(harness.WithFaultPlan(fault.Plan{})))
		} else {
			lossy = runOn(t, r.vals["app"], r.config(harness.WithFaultPlan(envelopePlan(r.seed))))
		}
		dropped += lossy.res.Fault.Dropped
		if !bytes.Equal(free.mem, lossy.mem) {
			t.Error("final memory under the envelope diverges from the fault-free run")
		}
	})
	if dropped == 0 {
		t.Error("the envelope dropped no message on any row")
	}
}

// TestSyncChaosMemEquivalence: on every row's machine, so under every
// lock and barrier algorithm, the synchronization benchmark ends with
// byte-identical memory fault-free and under 5% message loss, its
// lost-update oracle passing both times.
func TestSyncChaosMemEquivalence(t *testing.T) {
	eachRow(t, func(t *testing.T, r machine) {
		free := runOn(t, "syncbench", r.config(harness.WithFaultPlan(fault.Plan{})))
		lossy := runOn(t, "syncbench", r.config(harness.WithFaultPlan(LossPlan(r.seed))))
		if !bytes.Equal(free.mem, lossy.mem) {
			t.Error("syncbench final memory under 5% loss diverges from the fault-free run")
		}
	})
}

// counterRun is one locked-counter run and every stale read it saw.
type counterRun struct {
	res   harness.Result
	stale []string
}

// lockedCounters is the protocol torture distilled from the histogram
// example: counters packed on one page, each behind its own lock,
// hammered from every processor. Each locked read must equal the last
// value written under that lock, so a stale read or a lost merge is
// caught where it happens; the home copy must equal the shadow at the
// end, with every lock and barrier quiescent.
func lockedCounters(t *testing.T, cfg harness.Config) counterRun {
	t.Helper()
	const buckets, steps = 24, 80
	m := harness.NewMachine(cfg)
	bins := m.DSM.Space().AllocPages(buckets * 8)
	shadow := make([]int64, buckets)
	var out counterRun
	stale := func(format string, args ...any) { out.stale = append(out.stale, fmt.Sprintf(format, args...)) }
	res, err := m.Run(func(c *harness.Ctx) {
		for step := 0; step < steps; step++ {
			b := (step*5 + c.ID*11) % buckets
			c.Acquire(1 + b)
			if got := c.LoadI64(bins + vm.Addr(b*8)); got != shadow[b] {
				stale("clk=%d proc=%d bucket %d: read %d, shadow %d", c.Clock(), c.ID, b, got, shadow[b])
			}
			shadow[b]++
			c.StoreI64(bins+vm.Addr(b*8), shadow[b])
			c.Release(1 + b)
			c.Compute(50)
		}
		c.Barrier(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for b := range shadow {
		if got := int64(m.DSM.BackdoorLoad64(bins + vm.Addr(b*8))); got != shadow[b] {
			stale("bucket %d home = %d, shadow %d", b, got, shadow[b])
		}
	}
	if err := m.Sync.Quiescent(); err != nil {
		stale("not quiescent: %v", err)
	}
	out.res = res
	return out
}

// TestLockedCounterShadow runs the locked-counter torture on every row:
// the update protocol's refreshed copies, lazy release's acquire-side
// write notices, and grants reordered by jitter and faults must all
// keep every locked read current.
func TestLockedCounterShadow(t *testing.T) {
	eachRow(t, func(t *testing.T, r machine) {
		for _, s := range shadowRun(t, r).stale {
			t.Error(s)
		}
	})
}
