// Package stats provides the small statistical toolkit FastFIT's analyses
// rely on: summary statistics, histograms, Gaussian fitting (used to model
// the error-rate distribution across same-stack invocations, paper Fig. 3)
// and Pearson-style correlation.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Gaussian is a fitted normal distribution.
type Gaussian struct {
	Mu    float64
	Sigma float64
}

// FitGaussian fits a normal distribution to xs by maximum likelihood
// (sample mean and population standard deviation), the model the paper uses
// for the per-invocation error-rate distribution.
func FitGaussian(xs []float64) Gaussian {
	return Gaussian{Mu: Mean(xs), Sigma: StdDev(xs)}
}

func (g Gaussian) String() string {
	return fmt.Sprintf("N(mu=%.2f, sigma=%.2f)", g.Mu, g.Sigma)
}

// Histogram is a fixed-width binning of samples over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int // samples below Lo
	Over   int // samples at or above Hi
	N      int // total samples added
}

// NewHistogram creates a histogram with bins equal-width bins over [lo,hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.N++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Pearson returns the Pearson correlation coefficient of the paired samples
// xs and ys, or 0 when either series is constant.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n == 0 {
		return 0
	}
	mx, my := Mean(xs[:n]), Mean(ys[:n])
	var num, dx2, dy2 float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		num += dx * dy
		dx2 += dx * dx
		dy2 += dy * dy
	}
	den := math.Sqrt(dx2 * dy2)
	if den == 0 {
		return 0
	}
	return num / den
}

// PaperCorrelation implements Equation 1 of the paper: a Pearson
// correlation remapped to [0,1], where 1 means the feature varies with the
// sensitivity, 0 means it varies oppositely, and 0.5 means no effect.
func PaperCorrelation(xs, ys []float64) float64 {
	return 0.5 * (Pearson(xs, ys) + 1)
}
