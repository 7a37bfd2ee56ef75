package rank

import "math"

// WilsonInterval returns the two-sided Wilson score interval for a
// binomial proportion with the given successes out of trials, at
// confidence level 1−alpha; trials ≤ 0 yields the vacuous [0, 1]. It is
// the one interval reported with a Monte Carlo reliability estimate.
// The racer's elimination bounds (Hoeffding / empirical Bernstein) are
// built for sequential validity; this fixed-sample bound is the tighter
// one to report with a final score. It inverts the normal test on the
// binomial proportion: closed form, and well behaved at 0 and 1 —
// unlike the Wald interval, it never collapses to zero width at
// p̂ ∈ {0,1}.
func WilsonInterval(successes, trials int64, alpha float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 1
	}
	if alpha <= 0 {
		alpha = 1e-12
	} else if alpha >= 1 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	z := normalQuantile(1 - alpha/2)
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	rad := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = math.Max(0, center-rad)
	hi = math.Min(1, center+rad)
	// Exact boundaries at degenerate proportions (center−rad only
	// cancels to 0 up to rounding).
	if successes <= 0 {
		lo = 0
	}
	if successes >= trials {
		hi = 1
	}
	return lo, hi
}

// normalQuantile is the standard normal inverse CDF, via the identity
// Φ⁻¹(p) = √2·erf⁻¹(2p−1).
func normalQuantile(p float64) float64 {
	return math.Sqrt2 * math.Erfinv(2*p-1)
}
