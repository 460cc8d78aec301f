package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// The expected cut points are what Python's
// statistics.quantiles(xs, n=4) prints for the same input.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := quartiles(nil); err == nil {
		t.Error("quartiles of no samples should fail")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got, err := percentile(xs, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	// 999 samples leave only 9 beyond the p99 rank.
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples should be refused")
	}
	if got, err := percentile(xs[:100], 90); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %g, %v; want 90", got, err)
	}
	if _, err := percentile(xs[:100], 95); err == nil {
		t.Error("p95 of 100 samples should be refused")
	}
}

func TestSpread(t *testing.T) {
	sp, err := spreadOf([]float64{9, 10, 10, 11, 10})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Median != 10 || sp.RangeFrac != 0.2 {
		t.Errorf("spread = %+v, want median 10, range_frac 0.2", sp)
	}
	if math.Abs(sp.IQR-1) > 1e-12 || math.Abs(sp.IQRFrac-0.1) > 1e-12 {
		t.Errorf("spread = %+v, want iqr 1, iqr_frac 0.1", sp)
	}
}
