// Package harness mirrors the real internal/harness for the maprange
// fixture: host-side, but the rows it emits are promised byte-identical
// across runs, so map order must not reach them.
package harness

import "sort"

// Rows emits one CSV row per app in map order.
func Rows(cycles map[string]int64) []string {
	var rows []string
	for app := range cycles { // want `range over map in deterministic package`
		rows = append(rows, app)
	}
	return rows
}

// SortedRows is the sanctioned form.
func SortedRows(cycles map[string]int64) []string {
	var rows []string
	for app := range cycles {
		rows = append(rows, app)
	}
	sort.Strings(rows)
	return rows
}
