package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

// spin burns CPU under a name the profile test can look for.
//
//go:noinline
func spin(d time.Duration) uint64 {
	var x uint64 = 1
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// The reader must decode what runtime/pprof actually writes: packed
// sample fields, the location -> line -> function -> string chain, and
// leaf-first order.
func TestParseProfileDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		if s.count <= 0 || len(s.funcs) == 0 {
			t.Fatalf("sample without a count or a stack: %+v", s)
		}
		total += s.count
		if stackHas(s.funcs, []string{"mgs/bench.spin"}) {
			inSpin += s.count
			if root := s.funcs[len(s.funcs)-1]; root != "testing.tRunner" {
				t.Errorf("stack is not leaf first: root frame %q", root)
			}
		}
	}
	// 300 ms at 100 Hz is 30 samples; a host busy with other packages'
	// tests delivers fewer, and more of them from runtime threads.
	if total < 3 {
		t.Fatalf("%d samples decoded from a 300 ms profile", total)
	}
	if inSpin*2 < total {
		t.Errorf("only %d of %d samples name spin", inSpin, total)
	}
	if got := attribute(samples)["prof.samples"]; got != float64(total) {
		t.Errorf("prof.samples = %v, want %d", got, total)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("no error for a non-gzip input")
	}
	// A length-delimited field that claims more bytes than follow.
	if _, _, _, err := (&pbuf{[]byte{0x12, 0x7f, 0x00}}).next(); err == nil {
		t.Error("no error for a truncated field")
	}
}

func TestBucketingRule(t *testing.T) {
	futexUnderBlock := []string{
		"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm", "runtime.wakep",
		"runtime.ready", "runtime.goready.func1", "runtime.systemstack", "runtime.goready", "runtime.chansend",
		"runtime.chansend1", "mgs/internal/sim.(*Proc).block", "mgs/internal/sim.(*Proc).Sleep",
		"mgs/internal/core.(*System).fault", "mgs/internal/core.(*System).Access",
		"mgs/internal/harness.(*Ctx).LoadF64", "mgs/internal/apps.(*MatMul).Body",
		"mgs/internal/harness.NewMachine.func1", "mgs/internal/sim.(*Engine).NewProc.func1", "runtime.goexit",
	}
	mallocUnderSend := []string{
		"runtime.(*mcache).nextFree", "runtime.mallocgcSmallScanNoHeader", "runtime.mallocgc", "runtime.newobject",
		"mgs/internal/msg.(*Network).SendTagged", "mgs/internal/msg.(*Network).Send",
		"mgs/internal/core.(*System).sendRel", "mgs/internal/sim.(*Engine).Run", "main.runPass",
	}
	cases := []struct {
		name  string
		stack []string
		want  string
	}{
		{"futex under Proc.block", futexUnderBlock, "rt_sched"},
		{"mallocgc under SendTagged", mallocUnderSend, "rt_malloc_gc"},
		{"scheduler with no user frame", []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "rt_sched"},
		{"gc worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit"}, "rt_malloc_gc"},
		{"runtime helper charged to its caller", []string{"runtime.memmove", "mgs/internal/core.(*DiffBuf).Compute", "mgs/internal/core.(*System).finishInv"}, "core"},
		{"sub-package folds into its parent", []string{"mgs/internal/msync/algo.(*mcsLock).Acquire", "mgs/internal/harness.(*Ctx).Acquire"}, "msync"},
		{"event heap is sim", []string{"mgs/internal/sim.(*eventQueue).siftDown", "mgs/internal/sim.(*eventQueue).Pop", "mgs/internal/sim.(*Engine).next", "mgs/internal/sim.(*Engine).Run"}, "sim"},
		{"package outside the table is skipped", []string{"mgs/internal/fault.(*Plan).Fate", "mgs/internal/msg.(*injector).send"}, "msg"},
		{"the benchmark itself", []string{"hash/fnv.(*sum64a).Write", "main.digest", "main.runPass"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("%s: bucket %q, want %q", c.name, got, c.want)
		}
	}

	m := attribute([]stackSample{
		{3, futexUnderBlock},
		{2, mallocUnderSend},
		{4, cases[6].stack},
		{1, []string{"sync.(*Mutex).Lock", "mgs/internal/obs.(*Registry).Counter", "mgs/internal/obs.(*Registry).Add", "mgs/internal/stats.(*Collector).Count"}},
	})
	want := map[string]float64{
		"prof.samples": 10, "prof.rt_sched_frac": 0.3, "prof.sim_handoff_frac": 0.3,
		"prof.rt_malloc_gc_frac": 0.2, "prof.sim_frac": 0.4, "prof.sim_heap_frac": 0.4,
		"prof.obs_frac": 0.1, "prof.obs_counter_lookup_frac": 0.1, "prof.msg_frac": 0,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	sum := m["prof.rt_sched_frac"] + m["prof.rt_malloc_gc_frac"] + m["prof.other_frac"]
	for _, p := range profPkgs {
		sum += m["prof."+p+"_frac"]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("primary buckets sum to %v, want 1", sum)
	}
}

// Every workload, at its short size, must verify, lose no simulation,
// and compute the same simulated results every time it runs.
func TestShortWorkloadsRepeat(t *testing.T) {
	for _, w := range workloads {
		var digests [2]string
		for i := range digests {
			var rec record
			ps := timedPasses(w.points(7, true), 0, 1, &rec)
			if rec.Failed != 0 || len(rec.Errors) != 0 {
				t.Fatalf("%s: %d failed: %v", w.name, rec.Failed, rec.Errors)
			}
			if rec.Attempted == 0 || ps[0].counts.Events == 0 || ps[0].counts.Accesses == 0 {
				t.Fatalf("%s: nothing ran: %+v", w.name, ps[0].counts)
			}
			digests[i] = rec.SimDigest
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: sim_digest %s then %s", w.name, digests[0], digests[1])
		}
	}
}

func TestDigestSeesSimulatedResults(t *testing.T) {
	w, _ := workloadByName("sync-serve")
	a := runPass(w.points(1, true), nil, 0)
	b := runPass(w.points(2, true), nil, 0)
	if len(a.errs)+len(b.errs) != 0 {
		t.Fatal(a.errs, b.errs)
	}
	if a.digests[0] == b.digests[0] {
		t.Error("serve digests agree across seeds: the digest misses the request trace")
	}
	if a.digests[1] != b.digests[1] {
		t.Error("syncbench digests differ across seeds: it is seedless")
	}
}

// BENCHMARK.json is generated from the program's tables (-manifest);
// the committed copy must be that output, within the driver's limits.
func TestManifestMatchesCommittedFile(t *testing.T) {
	got, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, committed) {
		t.Error("BENCHMARK.json differs from `go run ./bench -manifest`; regenerate it")
	}

	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, limit 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, limit 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, limit 1..128", n)
	}
	if len(got) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(got))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range m.Workloads {
		check(w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		check(e.Name, e.Unit)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, l := range m.PerLayer {
		check(l.Name, l.Unit)
	}
}

// What a run emits is built by looping over the same tables, so the
// names can only drift where a value is computed under a name no table
// lists, or a table lists a name nothing computes.
func TestEmittedNamesMatchTables(t *testing.T) {
	w, _ := workloadByName("tlb-thrash")
	computed := passMetrics([]passResult{runPass(w.points(1, true), nil, 0)})
	for k := range attribute(nil) {
		computed[k] = 0
	}
	computed["prof.trace_overhead_frac"] = 0
	for _, d := range drivers {
		computed[d.name] = 0
	}
	var got, want []string
	for k := range computed {
		got = append(got, k)
	}
	for _, d := range perLayer {
		want = append(want, d.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("computed %d per-layer names, the table lists %d:\n%v\n%v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("computed %q, table has %q", got[i], want[i])
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([2.31,2.29,2.40,2.35,2.30,2.33,2.38,2.32,2.36,2.31], n=4)
	// = [2.3075, 2.325, 2.365]; median 2.325.
	xs := []float64{2.31, 2.29, 2.40, 2.35, 2.30, 2.33, 2.38, 2.32, 2.36, 2.31}
	if got, want := spread(xs), (2.365-2.3075)/2.325; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{5}) != 0 || spread(nil) != 0 {
		t.Error("fewer than two samples must have no spread")
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		oldV, newV, spread, bound float64
		want                      string
	}{
		{2.0, 2.1, 0.01, 0.10, "within bound"},
		{2.0, 2.3, 0.01, 0.10, "worse"},
		{2.0, 1.7, 0.01, 0.10, "better"},
		{2.0, 1.99, 0.02, 0.10, "within bound"},
		{2.0, 2.3, 0.12, 0.10, "unresolved"},
		{380, 379, 0, 0.10, "within bound"},
		{380, 300, 0, 0.10, "better"},
		{0, 1, 0, 0.10, "unresolved"},
	} {
		if got := verdict(c.oldV, c.newV, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, spread %v, bound %v) = %q, want %q", c.oldV, c.newV, c.spread, c.bound, got, c.want)
		}
	}
}
