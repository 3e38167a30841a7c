package stats

// Confidence gate for zero-trial predictions.
//
// The sense advisor (internal/sense) serves a cached model prediction in
// place of real fault injection only when the evidence behind the
// prediction — ensemble vote share and held-out calibration precision —
// clears a floor with statistical headroom. "Clears with headroom" is the
// one-sided Wilson lower bound: a prediction backed by k agreeing
// observations out of n counts as confident only if even the pessimistic
// end of its Wilson interval exceeds the floor. Because the Wilson lower
// bound at k == n is 1/(1+z²/n) < 1 for any finite n, a floor of 1.0 is
// unreachable by construction: it disables the gate entirely, which is what
// the gated≡ungated differential identity test relies on.

// WilsonLower returns the lower bound of the two-sided Wilson score
// interval for k successes in n trials — the pessimistic estimate of the
// underlying proportion. It is 0 for n <= 0.
func WilsonLower(k, n int, confidence float64) float64 {
	if n <= 0 {
		return 0
	}
	lo, _ := WilsonInterval(k, n, confidence)
	return lo
}
