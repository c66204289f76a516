// Smoke test: every example program must build and run to completion
// with a zero exit status and produce output. The examples double as
// the public API's integration tests — they compile against the mgs
// package only (an mgs/internal/ import fails the test), so an API
// break that misses the unit tests still fails here.
package examples_test

import (
	"context"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestExamplesBuildAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples run full simulations; skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(e.Name(), "main.go")); err != nil {
			continue
		}
		found++
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(name, "main.go"), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if strings.HasPrefix(imp.Path.Value, `"mgs/internal/`) {
					t.Errorf("examples/%s imports %s: examples use the public mgs package only", name, imp.Path.Value)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, goBin, "run", "./examples/"+name)
			cmd.Dir = ".." // module root
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("go run ./examples/%s produced no output", name)
			}
		})
	}
	if found == 0 {
		t.Fatal("no example programs found")
	}
}
