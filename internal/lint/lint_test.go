package lint_test

import (
	"testing"

	"mgs/internal/lint"
	"mgs/internal/lint/analysistest"
)

func TestNoWallTime(t *testing.T) {
	analysistest.Run(t, "testdata/nowalltime", lint.NoWallTime,
		"mgs/internal/vm", "mgs/internal/fault", "mgs/internal/check",
		"mgs/internal/harness", "mgs/internal/framework")
}

func TestNoGoroutine(t *testing.T) {
	analysistest.Run(t, "testdata/nogoroutine", lint.NoGoroutine,
		"mgs/internal/mem", "mgs/internal/harness", "mgs/internal/sim", "mgs/internal/exp")
}

func TestMapRange(t *testing.T) {
	analysistest.Run(t, "testdata/maprange", lint.MapRange,
		"mgs/internal/cache", "mgs/internal/check", "mgs/internal/core", "mgs/internal/harness")
}
