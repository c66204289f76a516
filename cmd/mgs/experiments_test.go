package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsTable3 checks EXPERIMENTS.md's Table 3, the table
// tagged with the command that prints it, against that command's golden
// stdout: every Measured cell, every Paper cell, and every Δ at its
// printed precision, is what `mgs micro` prints for the lines the row
// names, and the orderings the table ticks hold.
func TestExperimentsTable3(t *testing.T) {
	const tag = "<!-- mgs micro -->"
	lines := map[string][]string{ // the table's rows -> lines of mgs micro
		"Cache miss local / remote / 2-party / 3-party": {"Cache Miss Local", "Cache Miss Remote", "Cache Miss 2-party", "Cache Miss 3-party"},
		"Remote software (LimitLESS)":                   {"Remote Software"},
		"Array / pointer translation":                   {"Distributed Array Translation", "Pointer Translation"},
		"TLB fill":                                      {"TLB Fill"},
		"Inter-SSMP read miss":                          {"Inter-SSMP Read Miss"},
		"Inter-SSMP write miss":                         {"Inter-SSMP Write Miss"},
		"Release, 1 writer":                             {"Release (1 writer)"},
		"Release, 2 writers":                            {"Release (2 writers)"},
	}
	golden, err := os.ReadFile("testdata/micro")
	if err != nil {
		t.Fatal(err)
	}
	run, paper := map[string]int{}, map[string]int{} // by line of mgs micro
	for _, l := range strings.Split(string(golden), "\n") {
		if f := strings.Fields(l); len(f) > 2 {
			r, err1 := strconv.Atoi(f[len(f)-2])
			p, err2 := strconv.Atoi(f[len(f)-1])
			if err1 == nil && err2 == nil {
				name := strings.Join(f[:len(f)-2], " ")
				run[name], paper[name] = r, p
			}
		}
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), tag+"\n")
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no table tagged %s", tag)
	}
	table, _, _ = strings.Cut(table, "\n\n")
	rows := 0
	for _, row := range strings.Split(table, "\n")[2:] { // past the header and rule
		c := strings.Split(strings.Trim(row, "|"), "|")
		for i := range c {
			c[i] = strings.TrimSpace(c[i])
		}
		if len(c) != 4 {
			t.Errorf("row %q: %d cells, want 4", row, len(c))
			continue
		}
		if c[0] == "Orderings (write > read, 2w > 1w)" {
			if run["Inter-SSMP Write Miss"] <= run["Inter-SSMP Read Miss"] || run["Release (2 writers)"] <= run["Release (1 writer)"] {
				t.Errorf("row %q ticks an ordering mgs micro does not print", c[0])
			}
			continue
		}
		names, ok := lines[c[0]]
		if !ok {
			t.Errorf("row %q names no line of mgs micro", c[0])
			continue
		}
		rows++
		cells := func(s string) string { return strings.ReplaceAll(s, ",", "") }
		var measured, published []string
		for _, n := range names {
			measured = append(measured, strconv.Itoa(run[n]))
			published = append(published, strconv.Itoa(paper[n]))
		}
		if got, want := cells(c[1]), strings.Join(measured, " / "); got != want {
			t.Errorf("row %q: Measured %s, mgs micro prints %s", c[0], c[1], want)
		}
		if got, want := cells(c[2]), strings.Join(published, " / "); got != want && !(got == "same" && want == cells(c[1])) {
			t.Errorf("row %q: Paper %s, mgs micro prints %s", c[0], c[2], want)
		}
		if c[3] == "input" {
			continue
		}
		delta := strings.TrimSuffix(strings.ReplaceAll(c[3], "−", "-"), "%")
		_, frac, _ := strings.Cut(delta, ".")
		r, p := float64(run[names[0]]), float64(paper[names[0]])
		if want := fmt.Sprintf("%+.*f", len(frac), 100*(r-p)/p); delta != want {
			t.Errorf("row %q: Δ %s, mgs micro prints %s%%", c[0], c[3], want)
		}
	}
	if rows != len(lines) {
		t.Errorf("Table 3 has %d of the %d rows that quote mgs micro", rows, len(lines))
	}
}
