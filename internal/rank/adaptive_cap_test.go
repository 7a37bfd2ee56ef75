package rank

import (
	"testing"

	"biorank/internal/kernel"
)

// TestAdaptiveWorldsHonorsMaxTrials pins the MaxTrials overshoot fix in
// AdaptiveMonteCarlo at a cap that is not a multiple of
// kernel.WordSize: the word rounding of the final batch used to push
// the total past the cap by up to WordSize−1 trials. The cap now rounds
// DOWN to a word multiple up front — the same rule TopKRacer.Worlds
// follows — so the near-tied pair below must stop at exactly
// cap − cap mod 64 and never above the configured cap.
func TestAdaptiveWorldsHonorsMaxTrials(t *testing.T) {
	qg := nearTieGraph()
	const cap = 1000 // not a word multiple: 1000 = 15·64 + 40
	if cap%kernel.WordSize == 0 {
		t.Fatal("test needs a non-word-multiple cap")
	}
	a := &AdaptiveMonteCarlo{Eps: 1e-9, Delta: 1e-6, Batch: 300, MaxTrials: cap, Seed: 5, Worlds: true}
	_, trials, err := adaptiveTrials(a, qg)
	if err != nil {
		t.Fatal(err)
	}
	if trials > cap {
		t.Fatalf("adaptive worlds ran %d trials, above the %d cap", trials, cap)
	}
	want := cap - cap%kernel.WordSize // effective cap rounds down
	if trials != want {
		t.Fatalf("near-tied adaptive stopped at %d trials, want the full rounded cap %d", trials, want)
	}
	// The scalar estimator honors the cap exactly.
	a = &AdaptiveMonteCarlo{Eps: 1e-9, Delta: 1e-6, Batch: 300, MaxTrials: cap, Seed: 5}
	_, trials, err = adaptiveTrials(a, qg)
	if err != nil {
		t.Fatal(err)
	}
	if trials != cap {
		t.Fatalf("scalar adaptive stopped at %d trials, want exactly %d", trials, cap)
	}
}

// TestAdaptiveWorldsTinyCapStillSimulates: a cap below one word must
// still run one word rather than zero trials.
func TestAdaptiveWorldsTinyCapStillSimulates(t *testing.T) {
	qg := nearTieGraph()
	a := &AdaptiveMonteCarlo{Eps: 1e-9, Delta: 1e-6, MaxTrials: 10, Seed: 5, Worlds: true}
	_, trials, err := adaptiveTrials(a, qg)
	if err != nil {
		t.Fatal(err)
	}
	if trials != kernel.WordSize {
		t.Fatalf("tiny cap ran %d trials, want one word (%d)", trials, kernel.WordSize)
	}
}
