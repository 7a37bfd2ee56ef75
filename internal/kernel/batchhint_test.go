package kernel

import (
	"testing"

	"biorank/internal/prob"
)

// BatchHint feeds the deadline-aware estimators' chunk sizes, so it
// must always be a whole number of 256-world blocks: worlds chunks are
// hint/WordSize words, and only BlockWords-multiples of words keep the
// block kernel's block/remainder split — and hence its RNG stream —
// identical to a one-shot run.
func TestBatchHintBlockAligned(t *testing.T) {
	for _, qg := range []struct {
		name string
		plan *Plan
	}{
		{"diamond", Compile(diamondGraph())},
	} {
		hint := qg.plan.BatchHint()
		if hint < BlockSize {
			t.Errorf("%s: BatchHint %d below one block (%d)", qg.name, hint, BlockSize)
		}
		if hint%BlockSize != 0 {
			t.Errorf("%s: BatchHint %d not a BlockSize multiple", qg.name, hint)
		}
		if hint > 1<<14 {
			t.Errorf("%s: BatchHint %d above the 1<<14 cap", qg.name, hint)
		}
	}
}

// A session run chunked at block multiples must reproduce the one-shot
// kernel call exactly: same counts, same final RNG state.
func TestWorldsBlockSessionChunkInvariant(t *testing.T) {
	plan := Compile(diamondGraph())
	const words = 23 // 5 whole blocks + 3 remainder words

	oneRNG := prob.NewRNG(91)
	oneShot := make([]int64, plan.NumNodes())
	plan.reliabilityCountsWorldsBlock(oneShot, words, oneRNG, nil)

	for _, chunks := range [][]int{
		{23},
		{4, 4, 4, 4, 4, 3},
		{8, 12, 3},
		{20, 3},
		{4, 19},
	} {
		sum := 0
		for _, c := range chunks {
			sum += c
		}
		if sum != words {
			t.Fatalf("bad test case %v: sums to %d", chunks, sum)
		}
		rng := prob.NewRNG(91)
		sess := plan.NewWorldsBlockSession(rng)
		counts := make([]int64, plan.NumNodes())
		var ops SimOps
		for _, c := range chunks {
			sess.Counts(counts, nil, c, &ops)
		}
		if ops.Trials != words*WordSize {
			t.Errorf("chunks %v: accounted %d trials, want %d", chunks, ops.Trials, words*WordSize)
		}
		for i := range counts {
			if counts[i] != oneShot[i] {
				t.Errorf("chunks %v: node %d count %d != one-shot %d", chunks, i, counts[i], oneShot[i])
			}
		}
		if rng.State() != oneRNG.State() {
			t.Errorf("chunks %v: final RNG state diverged from one-shot", chunks)
		}
	}
}
