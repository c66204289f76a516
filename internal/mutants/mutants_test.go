// Package mutants is the table of mutation sentinels: known-bad edits
// to the program, each with the test that must fail on it and the
// messages that failure must carry. They show that the checks the
// reproduction rests on can fail: the determinism policy, cost
// accounting, observer neutrality, Table 1's request/reply balance,
// allocation counts, Setup's first-touch order and the null protocol
// at C = P. A new sentinel is a
// row of sentinels, not a CI step. Run the table with
//
//	MGS_SENTINELS=1 go test -run TestSentinels ./internal/mutants
package mutants

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A sentinel is one mutation and the failure it must cause.
type sentinel struct {
	name  string
	what  string      // the mutation, in words
	file  string      // the file it edits, from the module root
	edits [][2]string // exact old → new texts, in order; each old text occurs once
	pkg   string      // the package whose tests must fail
	run   string      // the -run pattern; empty runs every test
	want  []string    // substrings the failing output must all contain
}

var sentinels = []sentinel{
	{"maprange", "sortedIDs walking its map unsorted", "internal/msync/msync.go",
		[][2]string{{"\n\tsort.Ints(ids)\n", "\n\t_ = sort.Ints\n"}},
		".", "TestDeterminismPolicy", []string{"[maprange]"}},
	{"nowalltime", "a host clock read in internal/stats", "internal/stats/stats.go",
		[][2]string{{"\nimport (\n", "\nimport (\n\t\"time\"\n"}, {"\n\t\"mgs/internal/sim\"\n)\n", "\n\t\"mgs/internal/sim\"\n)\n\nvar _ = time.Now()\n"}},
		".", "TestDeterminismPolicy", []string{"[nowalltime]"}},
	{"nogoroutine", "a goroutine spawned in core.unlock", "internal/core/ptlock.go",
		[][2]string{{"\n\t\tpanic(\"core: unlock of free page-table lock\")\n", "\n\t\tgo func() {}()\n\t\tpanic(\"core: unlock of free page-table lock\")\n"}},
		".", "TestDeterminismPolicy", []string{"[nogoroutine]"}},
	{"context-split", "the UPGRADE handler advancing a processor's clock", "internal/core/message.go",
		[][2]string{{"\n\t\ts.onUpgrade(a.cp, a.p, at)\n", "\n\t\ta.p.Advance(0)\n\t\ts.onUpgrade(a.cp, a.p, at)\n"}},
		"./internal/core", "", []string{"sim: Proc.Advance"}},
	{"cost", "the DATA handler's MapPage charge dropped", "internal/core/server.go",
		[][2]string{{"\n\tat = s.net.Extend(p.ID, at, c.MapPage)\n", "\n\t_ = c.MapPage\n"}},
		"./cmd/mgs", "", []string{"mgs micro: stdout differs from testdata/micro"}},
	{"charging-rule", "the sync shim's acquire LockOp dropped", "internal/msync/shim.go",
		[][2]string{{"\n\tl.total++\n\tm.env.ChargeLock(p, m.env.LockOp())\n", "\n\tl.total++\n\t_ = m.env.LockOp()\n"}},
		"./cmd/mgs", "", []string{"mgs sync -p 8 -small -csv: stdout differs from testdata/sync_-p_8_-small_-csv"}},
	{"observer", "a transport ack counted only while tracing", "internal/msg/reliable.go",
		[][2]string{{"\n\tdetail := fmt.Sprintf(\"ch=%d->%d seq=%d id=%d\", from, to, seq, id)\n", "\n\tin.fs.Acks++\n\tdetail := fmt.Sprintf(\"ch=%d->%d seq=%d id=%d\", from, to, seq, id)\n"}},
		"./internal/exp", "TestObserversDoNotPerturbRun", []string{"perturbs the run"}},
	{"elision", "a Sleep that ties with a queued event eliding its switch", "internal/sim/proc.go",
		[][2]string{{"e.queue.min().t > p.clock", "e.queue.min().t >= p.clock"}},
		"./cmd/mgs", "", []string{"stdout differs from testdata/sweep_-app_water_-small_-p_8_-csv"}},
	{"cache-footprint", "a whole cache allocated for every chunk filled", "internal/cache/cache.go",
		[][2]string{{"\n\t\tc = d.store.carve(1 << d.chunkShift)\n", "\n\t\tc = &make([]chunk, 1<<d.chunkShift)[0]\n"}},
		"./internal/exp", "TestEngineCountsGolden", []string{"KB allocated per run, budget", "ChunkBlocks = 0, want"}},
	{"dir-width", "every directory's sharer sets 64 bits wide, whatever the cluster size", "internal/cache/cache.go",
		[][2]string{{"\n\tsetBits := min(uint(bits.Len(uint(max(nprocs-1, 0)))), 6)\n", "\n\tsetBits := uint(6)\n"}},
		"./internal/exp", "TestEngineCountsGolden", []string{"KB allocated per run, budget", "jacobi-c1: DirWords = 162816, want 2544"}},
	{"page-store", "a frame's bytes allocated per mapped page", "internal/mem/alloc.go",
		[][2]string{{"\n\tf.ID, f.Data = id, s.bytes.Carve(pageSize, maxBlock)\n", "\n\tf.ID, f.Data = id, make([]byte, pageSize)\n"}},
		"./internal/exp", "TestEngineCountsGolden", []string{"mallocs per run, budget", "PageBlocks = 0, want"}},
	{"balance", "RACKs left unbooked", "internal/core/counters.go",
		[][2]string{{"\n\ts.sent[m.kind]++\n", "\n\tif m.kind != mRack { s.sent[m.kind]++ }\n"}},
		"./internal/exp", "TestMachineTable", []string{"REL sent against 0 RACK: the request/reply pair does not balance"}},
	{"sync-record", "delivered sync records never reused", "internal/msync/algo/env.go",
		[][2]string{{"\n\te.free.Put(m)\n", "\n"}},
		"./internal/msync/algo", "TestSyncDoesNotAllocate", []string{"lock token allocates:", "barrier tree allocates:"}},
	{"first-touch", "Jacobi's Setup filling src before dst", "internal/apps/jacobi.go",
		[][2]string{{"\n\tfillInTurn(m, j.src, j.dst, words, edge, edge)\n", "\n\tj.src.Fill(m, 0, words, edge)\n\tj.dst.Fill(m, 0, words, edge)\n"}},
		"./internal/exp", "TestSetupFirstTouchOrder", []string{"jacobi: home frames hash to"}},
	{"null-mgs", "the protocol running at C = P", "internal/core/system.go",
		[][2]string{{"\n\t\tnull:  cfg.P == cfg.C,\n", "\n\t\tnull:  false,\n"}},
		"./internal/core", "TestNullMGSAtCEqualsP", []string{"jacobi: rreq=", "a Table 1 message counter, at C = P", "where every fill is tlbfill.null"}},
}

// root is the module root, from this package's directory.
const root = "../.."

// apply returns src with every edit made, or an error naming the first
// edit whose old text does not occur exactly once.
func (s sentinel) apply(src string) (string, error) {
	for _, e := range s.edits {
		if n := strings.Count(src, e[0]); n != 1 {
			return "", fmt.Errorf("%s: %q occurs %d times, want once", s.file, e[0], n)
		}
		src = strings.Replace(src, e[0], e[1], 1)
	}
	return src, nil
}

// TestSentinelsApply holds every row to the tree as it stands, so a
// refactor that moves a mutated line, or renames the test a row runs,
// fails go test ./... naming the row.
func TestSentinelsApply(t *testing.T) {
	for _, s := range sentinels {
		src, err := os.ReadFile(filepath.Join(root, s.file))
		if err == nil {
			_, err = s.apply(string(src))
		}
		if err != nil {
			t.Errorf("%s sentinel: mutation does not apply: %v", s.name, err)
		}
		tests, _ := filepath.Glob(filepath.Join(root, s.pkg, "*_test.go"))
		found := s.run == ""
		for _, f := range tests {
			src, _ := os.ReadFile(f) // a file that cannot be read declares nothing
			found = found || strings.Contains(string(src), "func "+s.run+"(")
		}
		if !found {
			t.Errorf("%s sentinel: no %s in %s", s.name, s.run, s.pkg)
		}
	}
}

// TestSentinels copies the module once and, one row at a time, applies
// the row's mutation, requires go test on its package to fail with
// every wanted message, and restores the file. It copies rather than
// overlays because TestDeterminismPolicy parses sources from disk.
func TestSentinels(t *testing.T) {
	if os.Getenv("MGS_SENTINELS") != "1" {
		t.Skip("set MGS_SENTINELS=1 to run the mutation sentinels")
	}
	files, err := exec.Command("git", "-C", root, "ls-files", "-z", "--cached", "--others", "--exclude-standard").Output()
	if err != nil {
		t.Fatalf("listing the module's files: %v", err)
	}
	dir := t.TempDir()
	for _, f := range strings.Split(strings.TrimSuffix(string(files), "\x00"), "\x00") {
		src, err := os.ReadFile(filepath.Join(root, f))
		if errors.Is(err, fs.ErrNotExist) {
			continue // deleted in the work tree
		}
		if err == nil {
			err = os.MkdirAll(filepath.Dir(filepath.Join(dir, f)), 0o755)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, f), src, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sentinels {
		t.Run(s.name, func(t *testing.T) {
			path := filepath.Join(dir, s.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mutated, err := s.apply(string(orig))
			if err != nil {
				t.Fatalf("%s sentinel: mutation did not apply: %v", s.name, err)
			}
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			cmd := exec.Command("go", "test", "-count=1", "-run", s.run, s.pkg)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("%s sentinel survived: %q passed with %s", s.name, cmd.Args, s.what)
			}
			for _, w := range s.want {
				if !strings.Contains(string(out), w) {
					t.Fatalf("%s sentinel: %q failed for the wrong reason (no %q):\n%s", s.name, cmd.Args, w, out)
				}
			}
		})
	}
}
