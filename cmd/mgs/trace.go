package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mgs/internal/cli"
	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/obs"
)

// trace runs an application with the observability spine attached and
// prints the unified MGS event stream — protocol transitions,
// synchronization operations, and (with -faults) transport fates, all
// on one virtual-time axis. This is the tool used to diagnose every
// protocol race found while building this system.
//
// With -faults, injector events (DROP/DUP/DELAY/TIMEOUT/ACK...) print
// interleaved with the protocol events — the view that shows which
// retransmission provoked which protocol transition. With -chrome, the
// same (filtered) stream is also written as Chrome trace_event JSON
// (chrome://tracing, https://ui.perfetto.dev): one track per processor
// plus one per software engine, timestamped in virtual cycles.
func trace(t *cli.Tool, args []string, stdout io.Writer) error {
	t.MachineFlags("water", 8, 2, true)
	var (
		page   = t.Flags.Int64("page", -1, "only events for this page (-1: all)")
		from   = t.Flags.Int64("from", 0, "suppress events before this cycle")
		to     = t.Flags.Int64("to", 1<<62, "suppress events after this cycle")
		max    = t.Flags.Int("max", 500, "stop printing after this many events")
		cats   = t.Flags.String("cat", "", "comma-separated categories (protocol, transport, sync, engine; empty: all)")
		chrome = t.Flags.String("chrome", "", "also write the filtered stream as Chrome trace JSON to this file")
		faults = t.Flags.Bool("faults", false, "attach a fault plan and trace injector events too")
		fseed  = t.Flags.Uint64("fseed", 1, "fault plan seed")
		fdrop  = t.Flags.Int("fdrop", 300, "drop rate, basis points")
		fdup   = t.Flags.Int("fdup", 100, "duplication rate, basis points")
		fdelay = t.Flags.Int("fdelay", 500, "delay rate, basis points")
	)
	if err := t.Parse(args); err != nil {
		return err
	}
	if *max < 1 {
		return t.Usagef("-max %d: want at least one event", *max)
	}

	keepCat, err := catFilter(*cats)
	if err != nil {
		return err
	}

	text := obs.NewTextSink(stdout)
	var chromeSink *obs.ChromeSink
	sink := obs.Sink(text)
	if *chrome != "" {
		chromeSink = obs.NewChromeSink(t.P)
		sink = obs.FuncSink(func(e obs.Event) {
			text.Emit(e)
			chromeSink.Emit(e)
		})
	}
	keep := func(e obs.Event) bool {
		if text.Count >= *max || !keepCat[e.Cat] {
			return false
		}
		if *page >= 0 && !(e.Kind == obs.ObjPage && e.ID == *page) {
			return false
		}
		return int64(e.T) >= *from && int64(e.T) <= *to
	}

	opts := []harness.Option{harness.WithObserver(obs.New().AddSink(obs.Filter(sink, keep)))}
	if *faults {
		opts = append(opts, harness.WithFaultPlan(
			fault.Plan{Seed: *fseed, DropBP: *fdrop, DupBP: *fdup, DelayBP: *fdelay}))
	}
	res, err := harness.RunApp(t.Env().Apps(t.App), t.Config(opts...))
	if err != nil {
		return err
	}
	if chromeSink != nil {
		if err := writeFile(*chrome, chromeSink.WriteTo); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "-- wrote %s (%d events)\n", *chrome, chromeSink.Len())
	}
	fmt.Fprintf(stdout, "-- %d events printed; run took %s cycles\n", text.Count, comma(int64(res.Cycles)))
	return nil
}

// writeFile creates path, fills it with write, and closes it, returning
// the first error.
func writeFile(path string, write func(io.Writer) (int64, error)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// catFilter parses the -cat list into a per-category keep set.
func catFilter(list string) (keep [obs.NumCats]bool, err error) {
	byName := make(map[string]obs.Cat)
	for c := obs.Cat(0); c < obs.NumCats; c++ {
		byName[c.String()] = c
		keep[c] = list == ""
	}
	if list == "" {
		return keep, nil
	}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		c, ok := byName[name]
		if !ok {
			return keep, fmt.Errorf("unknown category %q", name)
		}
		keep[c] = true
	}
	return keep, nil
}

// comma renders n with thousands separators.
func comma(n int64) string {
	s := strconv.FormatInt(n, 10)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}
