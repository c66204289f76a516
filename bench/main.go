// Command bench is the simulator's benchmark: it measures the simulator
// as a program — host time and host memory — on five workloads that
// each load a different layer, and attributes the time to layers from
// outside, by timing calls into public functions and by bucketing CPU
// profile samples by package. See README.md.
//
//	go run ./bench                                  every workload, untraced and traced, and the layer drivers
//	go run ./bench -workload fig-fine -trace 0      one untraced run: the end-to-end metrics
//	go run ./bench -workload fig-fine -trace 1      one traced run: the per-layer metrics
//	go run ./bench -drivers                         the layer drivers alone
//	go run ./bench -compare old.json new.json       judge two result files against the committed bounds
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

const (
	minPasses      = 5 // an untraced run never reports a median of fewer
	defaultPasses  = 9
	refPasses      = 3   // untraced passes of a traced run, the base of trace_overhead_frac
	profiledPasses = 6   // enough for minSamples at 100 Hz when a pass takes 1.5 s
	minSamples     = 800 // below this the prof.* table is unresolved
)

// runContext is the hardware and toolchain a result was measured on.
type runContext struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	GOGC       string `json:"gogc"`
}

func context() runContext {
	c := runContext{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
		GOGC:       "default(100)",
	}
	// The driver's checkout is not a git repository; that is not an error.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		c.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		c.Kernel = strings.TrimSpace(string(b))
	}
	return c
}

// checkEnv refuses settings under which the numbers mean something
// else: the race detector slows everything severalfold, more Ps than
// CPUs adds scheduler churn the coroutine handoff is sensitive to, and
// a tuned collector moves wall time, allocation pacing and peak RSS.
func checkEnv() error {
	if raceEnabled {
		return errors.New("built with -race")
	}
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available", p, n)
	}
	for _, v := range []string{"GOGC", "GOMEMLIMIT"} {
		if s, ok := os.LookupEnv(v); ok {
			return fmt.Errorf("%s=%s is set; unset it", v, s)
		}
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload's results. A single run fills EndToEnd or
// PerLayer; the full run merges an untraced and a traced child.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Passes    int                    `json:"passes"` // timed passes behind each median
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	SimDigest string                 `json:"sim_digest"`
	Errors    []string               `json:"errors,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	// Samples holds the per-pass values behind each end-to-end median,
	// so -compare can tell a regression from run-to-run spread.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

type resultFile struct {
	Context   runContext `json:"context"`
	Workloads []record   `json:"workloads"`
}

// peakRSS is the process's resident-set high-water mark in MiB. It
// reads VmHWM rather than getrusage's ru_maxrss because Linux carries
// ru_maxrss across exec: under `go run` it would report the go tool's
// own peak for every workload smaller than that.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// warmUp runs the discarded first pass. Its digests are the reference
// every later pass of the run is checked against.
func warmUp(pts []point, rec *record) []uint64 {
	warm := runPass(pts, nil, 0)
	rec.Errors = append(rec.Errors, warm.errs...)
	rec.SimDigest = fmt.Sprintf("%016x", combine(warm.digests))
	return warm.digests
}

// timedPasses runs a warm-up pass and then the timed passes: exactly
// `passes` of them, or as many as fit in `seconds`, never fewer than
// minPasses. The heap is collected between passes so each starts from
// the same state.
func timedPasses(pts []point, seconds float64, passes int, rec *record) []passResult {
	ref := warmUp(pts, rec)
	var out []passResult
	start := time.Now()
	for len(out) < passes || (passes == 0 && (len(out) < minPasses || time.Since(start).Seconds() < seconds)) {
		runtime.GC()
		p := runPass(pts, nil, 0)
		rec.tally(p, ref)
		out = append(out, p)
	}
	return out
}

// tally counts a pass's operations: a simulation fails if Run or Verify
// errored or if its digest differs from the warm-up pass's.
func (rec *record) tally(p passResult, ref []uint64) {
	rec.Passes++
	rec.Attempted += len(p.digests)
	rec.Failed += len(p.errs)
	rec.Errors = append(rec.Errors, p.errs...)
	for i, d := range p.digests {
		if d != 0 && d != ref[i] {
			rec.Failed++
			rec.Errors = append(rec.Errors, fmt.Sprintf("point %d: digest %016x differs from the warm-up pass's %016x", i, d, ref[i]))
		}
	}
}

func column(ps []passResult, f func(passResult) float64) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return xs
}

func wallSeconds(p passResult) float64 { return p.wall.Seconds() }

const mib = 1 << 20

// ratio is a/b, or 0 where the workload has none of b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureUntraced produces the end-to-end metrics: tracing and
// profiling off, each metric the median over the timed passes.
func measureUntraced(w workload, seed uint64, seconds float64, passes int) record {
	rec := record{Workload: w.name, Seed: seed, EndToEnd: map[string]metricValue{}}
	ps := timedPasses(w.points(seed, false), seconds, passes, &rec)
	rec.Samples = map[string][]float64{
		"wall_s":      column(ps, wallSeconds),
		"cpu_s":       column(ps, func(p passResult) float64 { return p.cpu.Seconds() }),
		"setup_s":     column(ps, func(p passResult) float64 { return (p.construct + p.appSetup).Seconds() }),
		"peak_rss_mb": {peakRSS()},
		"mallocs_k":   column(ps, func(p passResult) float64 { return float64(p.mallocs) / 1e3 }),
		"alloc_mb":    column(ps, func(p passResult) float64 { return float64(p.allocBytes) / mib }),
	}
	for _, d := range endToEnd {
		rec.EndToEnd[d.name] = metricValue{median(rec.Samples[d.name]), d.unit}
	}
	return rec
}

// passMetrics turns untraced passes into the count.*, span.* and rate.*
// metrics. Counts repeat exactly, so the first pass's stand for all;
// times are medians over the passes.
func passMetrics(ref []passResult) map[string]float64 {
	vals := map[string]float64{}
	med := func(f func(passResult) float64) float64 { return median(column(ref, f)) }

	c := ref[0].counts
	for name, v := range map[string]int64{
		"count.sims": c.Sims, "count.events": c.Events, "count.accesses": c.Accesses,
		"count.sim_cycles": c.SimCycles, "count.inter_msgs": c.InterMsgs, "count.intra_msgs": c.IntraMsgs,
		"count.inter_bytes": c.InterBytes, "count.page_faults": c.PageFaults, "count.tlbfills": c.TLBFills,
		"count.diffs": c.Diffs, "count.releases": c.Releases, "count.lock_ops": c.LockOps,
		"count.link_wait_cycles": c.LinkWaitCycles, "count.dir_bytes": c.DirBytes,
	} {
		vals[name] = float64(v)
	}
	vals["count.inter_msgs_per_lock_op"] = ratio(float64(c.InterMsgs), float64(c.LockOps))
	vals["span.construct_s"] = med(func(p passResult) float64 { return p.construct.Seconds() })
	vals["span.app_setup_s"] = med(func(p passResult) float64 { return p.appSetup.Seconds() })
	vals["span.run_s"] = med(func(p passResult) float64 { return p.run.Seconds() })
	vals["span.verify_s"] = med(func(p passResult) float64 { return p.verify.Seconds() })
	vals["span.gc_pause_s"] = med(func(p passResult) float64 { return p.gcPause.Seconds() })
	vals["span.sys_cpu_frac"] = med(func(p passResult) float64 { return ratio(p.sysCPU.Seconds(), p.cpu.Seconds()) })
	wall := med(wallSeconds)
	vals["rate.ns_per_event"] = ratio(wall*1e9, float64(c.Events))
	vals["rate.ns_per_access"] = ratio(wall*1e9, float64(c.Accesses))
	vals["rate.mallocs_per_event"] = ratio(med(func(p passResult) float64 { return float64(p.mallocs) }), float64(c.Events))
	vals["rate.kevents_per_s"] = ratio(float64(c.Events)/1e3, wall)
	vals["rate.kaccess_per_s"] = ratio(float64(c.Accesses)/1e3, wall)
	return vals
}

// measureTraced produces the per-layer metrics. After the warm-up it
// alternates untraced passes (the source of the counts, spans and rates)
// with passes under a CPU profile and span recording (the source of the
// prof.* table), so that a drift in host speed during the run does not
// read as tracing overhead. The layer drivers run last. The spans go to
// <outDir>/trace-<workload>.json.
func measureTraced(w workload, seed uint64, outDir string) (record, error) {
	rec := record{Workload: w.name, Seed: seed, PerLayer: map[string]metricValue{}}
	pts := w.points(seed, false)
	refDigests := warmUp(pts, &rec)

	tr := newTracer()
	root := tr.begin(w.name, 0)
	var ref, traced []passResult
	var samples []stackSample
	for i := 0; i < profiledPasses; i++ {
		if i < refPasses {
			runtime.GC()
			p := runPass(pts, nil, 0)
			rec.tally(p, refDigests)
			ref = append(ref, p)
		}
		runtime.GC()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rec, fmt.Errorf("cpu profile: %w", err)
		}
		s := tr.begin("pass", root)
		p := runPass(pts, tr, s)
		tr.end(s)
		pprof.StopCPUProfile()
		rec.tally(p, refDigests)
		traced = append(traced, p)
		ss, err := parseProfile(prof.Bytes())
		if err != nil {
			return rec, err
		}
		samples = append(samples, ss...)
	}
	tr.end(root)

	vals := passMetrics(ref)
	for k, v := range attribute(samples) {
		vals[k] = v
	}
	// Each untraced pass is followed by a traced one; the ratio within a
	// pair is free of the drift between pairs.
	over := make([]float64, len(ref))
	for i := range ref {
		over[i] = ratio(wallSeconds(traced[i]), wallSeconds(ref[i])) - 1
	}
	vals["prof.trace_overhead_frac"] = median(over)

	for k, v := range runDrivers() {
		vals[k] = v
	}
	for _, d := range perLayer {
		rec.PerLayer[d.name] = metricValue{vals[d.name], d.unit}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return rec, err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{w.name, tr.spans})
	if err != nil {
		return rec, err
	}
	return rec, os.WriteFile(filepath.Join(outDir, "trace-"+w.name+".json"), b, 0o644)
}

func printMetrics(title string, defs []metricDef, m map[string]metricValue) {
	if len(m) == 0 {
		return
	}
	fmt.Printf("-- %s\n", title)
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			fmt.Printf("%-42s %16.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
}

// emit prints a single run's metrics by name, then, as the last line of
// standard output, the one JSON object the driver reads.
func emit(rec record) error {
	fmt.Printf("workload %s seed %d: %d timed passes, %d simulations attempted, %d failed, sim_digest %s\n",
		rec.Workload, rec.Seed, rec.Passes, rec.Attempted, rec.Failed, rec.SimDigest)
	for _, e := range rec.Errors {
		fmt.Println("FAILED:", e)
	}
	printMetrics("end to end (median over timed passes)", endToEnd, rec.EndToEnd)
	printMetrics("per layer", perLayer, rec.PerLayer)
	if s, ok := rec.PerLayer["prof.samples"]; ok && s.Value < minSamples {
		fmt.Printf("prof.* unresolved: %.0f samples, need %d\n", s.Value, minSamples)
	}
	metrics := rec.EndToEnd
	if metrics == nil {
		metrics = rec.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeResult(path string, ctx runContext, recs []record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(resultFile{ctx, recs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// runAll runs every workload untraced and traced, each run in a child
// process of its own so that heap state and peak RSS belong to one
// workload, and merges the children's results.
func runAll(ctx runContext, seed uint64, seconds float64, passes int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	part := filepath.Join(filepath.Dir(out), ".part.json")
	defer os.Remove(part)
	child := func(w workload, trace string) (record, error) {
		cmd := exec.Command(self, "-workload", w.name, "-trace", trace, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-passes", strconv.Itoa(passes), "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return record{}, fmt.Errorf("%s -trace %s: %w", w.name, trace, err)
		}
		rf, err := readResult(part)
		if err != nil {
			return record{}, err
		}
		return rf.Workloads[0], nil
	}
	var recs []record
	for _, w := range workloads {
		rec, err := child(w, "0")
		if err != nil {
			return err
		}
		traced, err := child(w, "1")
		if err != nil {
			return err
		}
		rec.PerLayer = traced.PerLayer
		rec.Attempted += traced.Attempted
		rec.Failed += traced.Failed
		rec.Errors = append(rec.Errors, traced.Errors...)
		if traced.SimDigest != rec.SimDigest {
			rec.Failed++
			rec.Errors = append(rec.Errors, "sim_digest differs between the untraced and the traced run")
		}
		recs = append(recs, rec)
	}
	summary(ctx, recs)
	return writeResult(out, ctx, recs)
}

// summary prints every metric by name with its unit, one column per
// workload.
func summary(ctx runContext, recs []record) {
	fmt.Printf("\n== summary: %d CPUs, GOMAXPROCS %d, %s, kernel %s, GOGC %s, commit %s\n",
		ctx.NumCPU, ctx.GOMAXPROCS, ctx.GoVersion, ctx.Kernel, ctx.GOGC, ctx.Commit)
	fmt.Printf("%-42s %-8s", "metric", "unit")
	for _, r := range recs {
		fmt.Printf(" %14s", r.Workload)
	}
	fmt.Println()
	row := func(d metricDef, get func(record) map[string]metricValue) {
		fmt.Printf("%-42s %-8s", d.name, d.unit)
		for _, r := range recs {
			fmt.Printf(" %14.6g", get(r)[d.name].Value)
		}
		fmt.Println()
	}
	for _, d := range endToEnd {
		row(d, func(r record) map[string]metricValue { return r.EndToEnd })
	}
	for _, d := range perLayer {
		row(d, func(r record) map[string]metricValue { return r.PerLayer })
	}
	fmt.Printf("%-51s", "sim_digest")
	for _, r := range recs {
		fmt.Printf(" %14s", r.SimDigest[:12])
	}
	fmt.Println()
	for _, r := range recs {
		fmt.Printf("%s: %d simulations attempted, %d failed\n", r.Workload, r.Attempted, r.Failed)
		if s := r.PerLayer["prof.samples"].Value; s < minSamples {
			fmt.Printf("%s: prof.* unresolved: %.0f samples, need %d\n", r.Workload, s, minSamples)
		}
	}
}

func run() error {
	var (
		wlName     = flag.String("workload", "", "run this workload only, in this process")
		trace      = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics (spans, CPU profile, drivers)")
		seed       = flag.Uint64("seed", 1, "workload seed (feeds the serve trace; the paper apps are seedless)")
		seconds    = flag.Float64("seconds", 0, "measure for this long: as many timed passes as fit, at least 5")
		passes     = flag.Int("passes", 0, "timed passes per untraced run (default 9 unless -seconds is given)")
		drvOnly    = flag.Bool("drivers", false, "run the layer drivers only")
		out        = flag.String("out", "bench/out/result.json", "result file; trace-<workload>.json is written next to it")
		doCompare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		doManifest = flag.Bool("manifest", false, "print BENCHMARK.json as the program defines it")
	)
	flag.Parse()

	switch {
	case *doManifest:
		b, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	case *doCompare:
		if flag.NArg() != 2 {
			return errors.New("usage: bench -compare old.json new.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	if err := checkEnv(); err != nil {
		return fmt.Errorf("refusing to measure: %w", err)
	}
	if *passes == 0 && *seconds == 0 {
		*passes = defaultPasses
	}
	if *passes > 0 && *passes < minPasses {
		return fmt.Errorf("-passes %d: a median needs at least %d", *passes, minPasses)
	}
	ctx := context()

	switch {
	case *drvOnly:
		vals := runDrivers()
		for _, d := range drivers {
			fmt.Printf("%-42s %16.6g %s\n", d.name, vals[d.name], d.unit)
		}
		return nil
	case *wlName == "":
		return runAll(ctx, *seed, *seconds, *passes, *out)
	}

	w, ok := workloadByName(*wlName)
	if !ok {
		return fmt.Errorf("unknown workload %q", *wlName)
	}
	var rec record
	if *trace == 0 {
		rec = measureUntraced(w, *seed, *seconds, *passes)
	} else {
		var err error
		if rec, err = measureTraced(w, *seed, filepath.Dir(*out)); err != nil {
			return err
		}
	}
	if err := writeResult(*out, ctx, []record{rec}); err != nil {
		return err
	}
	return emit(rec)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
