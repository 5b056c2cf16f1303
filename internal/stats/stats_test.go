package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Sum([]float64{1.5, 2.5}); got != 4 {
		t.Errorf("Sum = %v, want 4", got)
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
	if got := GeoMean([]float64{2, 8}); !almostEq(got, 4, 1e-12) {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{1, 1, 1}); !almostEq(got, 1, 1e-12) {
		t.Errorf("GeoMean(ones) = %v, want 1", got)
	}
	// Degenerate inputs must stay defined: faulted runs (stuck arm,
	// collapsed bandwidth at intensity 1) can measure exactly 0, and a
	// corrupt element must not poison the summary.
	if got := GeoMean([]float64{2, 0, 8}); got != 0 {
		t.Errorf("GeoMean with zero = %v, want 0", got)
	}
	if got := GeoMean([]float64{1, -1}); !almostEq(got, 1, 1e-12) {
		t.Errorf("GeoMean skipping negative = %v, want 1", got)
	}
	if got := GeoMean([]float64{4, math.NaN(), 9}); !almostEq(got, 6, 1e-12) {
		t.Errorf("GeoMean skipping NaN = %v, want 6", got)
	}
	if got := GeoMean([]float64{2, math.Inf(1)}); !almostEq(got, 2, 1e-12) {
		t.Errorf("GeoMean skipping +Inf = %v, want 2", got)
	}
	if got := GeoMean([]float64{-1, math.NaN()}); got != 0 {
		t.Errorf("GeoMean with no usable elements = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max not infinite")
	}
}

func TestRatiosNormalize(t *testing.T) {
	r := Ratios([]float64{2, 9}, []float64{4, 3})
	if r[0] != 0.5 || r[1] != 3 {
		t.Errorf("Ratios = %v", r)
	}
	n := Normalize([]float64{2, 4}, 2)
	if n[0] != 1 || n[1] != 2 {
		t.Errorf("Normalize = %v", n)
	}
	assertPanics(t, func() { Ratios([]float64{1}, []float64{}) })
	assertPanics(t, func() { Ratios([]float64{1}, []float64{0}) })
	assertPanics(t, func() { Normalize([]float64{1}, 0) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestSummary(t *testing.T) {
	s := Summarize([]float64{0.95, 1.0, 1.05})
	if s.Min != 0.95 || s.Max != 1.05 {
		t.Errorf("Summary = %+v", s)
	}
	p := s.AsPercent()
	if !almostEq(p.Min, 95, 1e-9) || !almostEq(p.Max, 105, 1e-9) {
		t.Errorf("AsPercent = %+v", p)
	}
	if !strings.Contains(s.String(), "gmean=") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSpeedupPercent(t *testing.T) {
	if got := SpeedupPercent(1.026); !almostEq(got, 2.6, 1e-9) {
		t.Errorf("SpeedupPercent = %v", got)
	}
}

// Property: geometric mean lies between min and max for positive inputs.
func TestQuickGeoMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)/1000 + 0.001 // strictly positive
		}
		g := GeoMean(xs)
		return g >= Min(xs)-1e-9 && g <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: geometric mean is multiplicative: GeoMean(k*xs) = k*GeoMean(xs).
func TestQuickGeoMeanScaling(t *testing.T) {
	f := func(raw []uint16, kRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		k := float64(kRaw)/100 + 0.01
		xs := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)/1000 + 0.001
			scaled[i] = xs[i] * k
		}
		a, b := GeoMean(scaled), k*GeoMean(xs)
		return almostEq(a, b, 1e-6*math.Max(1, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
