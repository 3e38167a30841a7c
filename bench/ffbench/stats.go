package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0..1) of vs by linear interpolation
// between order statistics; 0 for an empty sample. vs is not modified.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

// quartileSpread is the distance between the first and third quartile of
// vs as a share of its median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives (the exclusive method) — the figure
// the acceptance rule for this benchmark is stated in. It needs at least
// two values.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// Exclusive method: position k(n+1)/4 in 1-based order statistics,
		// interpolating (or, on tiny samples, extrapolating) from the
		// nearest pair inside the sample, exactly as Python does.
		n := len(s)
		pos := float64(k*(n+1)) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// elapsed is the time since t0 in the given unit (e.g. time.Millisecond).
func elapsed(t0 time.Time, unit time.Duration) float64 {
	return float64(time.Since(t0)) / float64(unit)
}

// sampler collects the wall time of repeated calls of one operation under
// a sample cap and a time cap, so a probe costs the same on a 1 ms trial
// as on a 25 ms one.
type sampler struct {
	maxSamples int
	budget     time.Duration
}

// run calls fn until either cap is reached or it fails, and returns the
// per-call durations in the given unit.
func (s sampler) run(unit time.Duration, fn func() error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < s.maxSamples {
		t0 := time.Now()
		if err := fn(); err != nil {
			return out, err
		}
		out = append(out, elapsed(t0, unit))
		if time.Since(start) > s.budget {
			break
		}
	}
	return out, nil
}

// perOp times n back-to-back calls of fn and returns the mean cost of one
// in nanoseconds — for operations too short to time singly.
func perOp(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return elapsed(t0, time.Nanosecond) / float64(n)
}
