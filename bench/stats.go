package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quartiles returns the three cut points that split xs into four equal
// groups, computed exactly like Python's statistics.quantiles(xs, n=4)
// with its default "exclusive" method, so spreads printed here match
// the ones an outside checker computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0, errors.New("quartiles: no samples")
	case 1:
		return xs[0], xs[0], xs[0], nil
	}
	s := sorted(xs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// minTail is the number of samples that must lie beyond a reported
// percentile: fewer, and the percentile is decided by a handful of
// samples and jumps from run to run.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of xs. It refuses
// (returns an error) unless at least minTail samples lie strictly above
// the rank it would report.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile: p%g of %d samples", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("percentile: p%g of %d samples leaves %d beyond it, want at least %d", p, n, beyond, minTail)
	}
	return sorted(xs)[rank-1], nil
}

// spread summarises repeated measurements of one metric.
type spread struct {
	Median float64
	// IQR is the distance between the first and third quartile.
	IQR float64
	// IQRFrac is IQR as a share of the median.
	IQRFrac float64
	// RangeFrac is (max-min) as a share of the median.
	RangeFrac float64
}

func spreadOf(xs []float64) (spread, error) {
	q1, _, q3, err := quartiles(xs)
	if err != nil {
		return spread{}, err
	}
	s := sorted(xs)
	sp := spread{Median: median(s), IQR: q3 - q1}
	if sp.Median != 0 {
		sp.IQRFrac = math.Abs(sp.IQR / sp.Median)
		sp.RangeFrac = math.Abs((s[len(s)-1] - s[0]) / sp.Median)
	}
	return sp, nil
}
