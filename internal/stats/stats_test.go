package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceKnownValues(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("stddev = %v, want 2", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev(nil) != 0 {
		t.Errorf("empty-input statistics should be zero")
	}
	if Pearson(nil, nil) != 0 {
		t.Errorf("empty Pearson should be 0")
	}
}

func TestGaussianFitRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = 30 + 8*rng.NormFloat64()
	}
	g := FitGaussian(xs)
	if !almost(g.Mu, 30, 0.5) {
		t.Errorf("mu = %v, want ~30", g.Mu)
	}
	if !almost(g.Sigma, 8, 0.5) {
		t.Errorf("sigma = %v, want ~8", g.Sigma)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 100, 20)
	for _, v := range []float64{0, 4.9, 5, 99.9, 100, 150, -1} {
		h.Add(v)
	}
	if h.N != 7 {
		t.Errorf("N = %d", h.N)
	}
	if h.Counts[0] != 2 { // 0 and 4.9
		t.Errorf("bin 0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 5
		t.Errorf("bin 1 = %d", h.Counts[1])
	}
	if h.Counts[19] != 1 { // 99.9
		t.Errorf("bin 19 = %d", h.Counts[19])
	}
	if h.Over != 2 || h.Under != 1 {
		t.Errorf("over=%d under=%d", h.Over, h.Under)
	}
	if c := h.BinCenter(0); c != 2.5 {
		t.Errorf("bin center = %v", c)
	}
}

func TestHistogramConservationProperty(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram(-10, 10, 8)
		finite := 0
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
			finite++
		}
		sum := h.Under + h.Over
		for _, c := range h.Counts {
			sum += c
		}
		return sum == finite && h.N == finite
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramDegenerateConstruction(t *testing.T) {
	h := NewHistogram(5, 5, 0) // hi<=lo and zero bins
	h.Add(5)
	if h.N != 1 {
		t.Errorf("degenerate histogram should still count")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almost(got, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almost(got, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", got)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("constant series should correlate 0, got %v", got)
	}
}

func TestPearsonBoundsProperty(t *testing.T) {
	f := func(pairs [][2]float64) bool {
		xs := make([]float64, 0, len(pairs))
		ys := make([]float64, 0, len(pairs))
		for _, p := range pairs {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsInf(p[0], 0) || math.IsInf(p[1], 0) {
				continue
			}
			xs = append(xs, math.Mod(p[0], 1e6))
			ys = append(ys, math.Mod(p[1], 1e6))
		}
		r := Pearson(xs, ys)
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPaperCorrelationMapping(t *testing.T) {
	// Eq. 1 maps Pearson [-1,1] to [0,1] with 0.5 = independent.
	xs := []float64{1, 2, 3, 4}
	if got := PaperCorrelation(xs, xs); !almost(got, 1, 1e-12) {
		t.Errorf("self correlation = %v, want 1", got)
	}
	rev := []float64{4, 3, 2, 1}
	if got := PaperCorrelation(xs, rev); !almost(got, 0, 1e-12) {
		t.Errorf("anti correlation = %v, want 0", got)
	}
	if got := PaperCorrelation([]float64{1, 1, 1}, xs); got != 0.5 {
		t.Errorf("independent correlation = %v, want 0.5", got)
	}
}

func TestPearsonMismatchedLengthsUsesPrefix(t *testing.T) {
	xs := []float64{1, 2, 3, 999}
	ys := []float64{2, 4, 6}
	if got := Pearson(xs, ys); !almost(got, 1, 1e-12) {
		t.Errorf("prefix correlation = %v", got)
	}
}
