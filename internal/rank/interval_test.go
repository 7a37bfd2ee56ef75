package rank

import (
	"math"
	"testing"
)

func TestWilsonIntervalKnownValues(t *testing.T) {
	// Textbook value: p̂ = 0.5, n = 100, 95% → [0.404, 0.596].
	lo, hi := WilsonInterval(50, 100, 0.05)
	if math.Abs(lo-0.404) > 0.002 || math.Abs(hi-0.596) > 0.002 {
		t.Fatalf("Wilson(50/100, 95%%) = [%v, %v], want ≈[0.404, 0.596]", lo, hi)
	}
	// Degenerate proportions never give zero-width intervals.
	lo, hi = WilsonInterval(0, 100, 0.05)
	if lo != 0 || hi <= 0 {
		t.Fatalf("Wilson(0/100) = [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(100, 100, 0.05)
	if hi != 1 || lo >= 1 {
		t.Fatalf("Wilson(100/100) = [%v, %v]", lo, hi)
	}
	// No trials: vacuous.
	if lo, hi = WilsonInterval(0, 0, 0.05); lo != 0 || hi != 1 {
		t.Fatalf("Wilson with no trials = [%v, %v], want [0,1]", lo, hi)
	}
}

func TestWilsonIntervalShrinksWithTrials(t *testing.T) {
	prev := 1.0
	for _, n := range []int64{10, 100, 1000, 10000} {
		lo, hi := WilsonInterval(n/2, n, 0.05)
		w := hi - lo
		if w >= prev {
			t.Fatalf("Wilson width not shrinking: n=%d width=%v prev=%v", n, w, prev)
		}
		if lo >= 0.5 || hi <= 0.5 {
			t.Fatalf("Wilson interval [%v,%v] must contain p̂=0.5", lo, hi)
		}
		prev = w
	}
}
