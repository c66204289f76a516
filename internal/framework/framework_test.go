package framework

import (
	"math"
	"strings"
	"testing"
)

func points(ts map[int]float64) []Point {
	var ps []Point
	for c, t := range ts {
		ps = append(ps, Point{C: c, Time: t})
	}
	return ps
}

func TestAnalyzeCurveB(t *testing.T) {
	// The paper's "curve B": tiny breakup penalty, large potential,
	// convex (most gains at small clusters).
	m := Analyze(points(map[int]float64{
		1: 1000, 2: 500, 4: 300, 8: 250, 16: 220, 32: 200,
	}))
	if got := m.BreakupPenalty; math.Abs(got-0.10) > 1e-9 {
		t.Errorf("breakup penalty = %v, want 0.10", got)
	}
	if got := m.MultigrainPotential; math.Abs(got-0.78) > 1e-9 {
		t.Errorf("potential = %v, want 0.78", got)
	}
	if !m.Convex() {
		t.Errorf("curve B must be convex, index = %v", m.CurvatureIndex)
	}
}

func TestAnalyzeCurveA(t *testing.T) {
	// "Curve A": high breakup penalty, small potential, concave.
	m := Analyze(points(map[int]float64{
		1: 1000, 2: 980, 4: 950, 8: 900, 16: 800, 32: 100,
	}))
	if m.BreakupPenalty < 5 {
		t.Errorf("breakup penalty = %v, want > 5 (700%%)", m.BreakupPenalty)
	}
	if m.Convex() {
		t.Errorf("curve A must be concave, index = %v", m.CurvatureIndex)
	}
}

func TestAnalyzeFlatCurve(t *testing.T) {
	// Jacobi/MatMul shape: performance independent of cluster size.
	m := Analyze(points(map[int]float64{1: 100, 2: 100, 4: 100, 8: 100}))
	if m.BreakupPenalty != 0 || m.MultigrainPotential != 0 {
		t.Errorf("flat curve: %+v", m)
	}
}

func TestAnalyzeUnsortedInput(t *testing.T) {
	a := Analyze([]Point{{8, 100}, {1, 400}, {4, 150}, {2, 250}})
	b := Analyze([]Point{{1, 400}, {2, 250}, {4, 150}, {8, 100}})
	if a != b {
		t.Errorf("order dependence: %+v vs %+v", a, b)
	}
}

func TestAnalyzePanicsOnTooFew(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Analyze([]Point{{1, 1}, {2, 1}})
}

func TestStringAndTable(t *testing.T) {
	s := Analyze(points(map[int]float64{1: 1000, 2: 400, 4: 220, 8: 200})).String()
	if !strings.Contains(s, "breakup penalty") || !strings.Contains(s, "%") {
		t.Errorf("String() = %q", s)
	}
}
