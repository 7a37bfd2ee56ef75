package rank

import (
	"context"
	"math"
	"reflect"
	"testing"

	"biorank/internal/kernel"
)

// These tests pin the Worlds (bit-parallel) estimator variant at the
// rank layer: statistical agreement with the exact evaluator on the
// Figure-4 graphs, composition with Workers / Adaptive / TopK, and the
// word-multiple trial accounting.

// TestWorldsMonteCarloMatchesFig4Exact checks the bit-parallel
// estimator against the known exact reliabilities of the paper's
// Figure 4 graphs, within a CLT band.
func TestWorldsMonteCarloMatchesFig4Exact(t *testing.T) {
	const trials = 128000
	const z = 5.0
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"4a", 0.5},
		{"4b", 0.46875},
	} {
		qg := fig4a()
		if tc.name == "4b" {
			qg = fig4b()
		}
		mc := &MonteCarlo{Trials: trials, Seed: 1, Worlds: true}
		res, err := mc.RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		sigma := math.Sqrt(tc.want * (1 - tc.want) / trials)
		if math.Abs(res.Scores[0]-tc.want) > z*sigma {
			t.Errorf("%s: worlds estimate %v vs exact %v (σ=%v)", tc.name, res.Scores[0], tc.want, sigma)
		}
	}
}

// TestWorldsParallelDeterministicAndAccurate checks the sharded
// bit-parallel path: deterministic for a fixed (seed, workers) pair,
// exact trial accounting in whole words, and statistical agreement
// with exact reliability.
func TestWorldsParallelDeterministicAndAccurate(t *testing.T) {
	const trials = 64000
	qg := fig4b()
	mc := &MonteCarlo{Trials: trials, Seed: 9, Worlds: true, Workers: 4}
	res1, ops, err := mc.RankWithStatsCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := (&MonteCarlo{Trials: trials, Seed: 9, Worlds: true, Workers: 4}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Scores {
		if res1.Scores[i] != res2.Scores[i] {
			t.Fatalf("answer %d: %v != %v across identical parallel runs", i, res1.Scores[i], res2.Scores[i])
		}
	}
	if ops.Trials != int64(kernel.WorldWords(trials)*kernel.WordSize) {
		t.Errorf("parallel worlds Trials = %d, want whole-word total %d", ops.Trials, kernel.WorldWords(trials)*kernel.WordSize)
	}
	want := 0.46875
	sigma := math.Sqrt(want * (1 - want) / trials)
	if math.Abs(res1.Scores[0]-want) > 5*sigma {
		t.Errorf("parallel worlds estimate %v vs exact %v (σ=%v)", res1.Scores[0], want, sigma)
	}
}

// TestWorldsTrialsRoundUpToWords pins the rounding rule at the rank
// layer: a 1000-trial request simulates 16 words = 1024 worlds, and the
// reported OpStats say so.
func TestWorldsTrialsRoundUpToWords(t *testing.T) {
	mc := &MonteCarlo{Trials: 1000, Seed: 3, Worlds: true}
	_, ops, err := mc.RankWithStatsCtx(context.Background(), fig4a())
	if err != nil {
		t.Fatal(err)
	}
	if ops.Trials != 1024 {
		t.Errorf("Trials = %d, want 1000 rounded up to 1024", ops.Trials)
	}
}

// TestAdaptiveWorldsBatchesAreWordMultiples checks the adaptive
// stopping rule under Worlds: the consumed trial count is always a
// multiple of the word size, and scores agree with the scalar adaptive
// estimator within the stopping rule's own eps.
func TestAdaptiveWorldsBatchesAreWordMultiples(t *testing.T) {
	qg := benchGraph(150, 50)
	worlds := &AdaptiveMonteCarlo{Seed: 5, Worlds: true}
	scores, trials, err := adaptiveTrials(worlds, qg)
	if err != nil {
		t.Fatal(err)
	}
	if trials == 0 || trials%kernel.WordSize != 0 {
		t.Errorf("adaptive worlds consumed %d trials, want a positive multiple of %d", trials, kernel.WordSize)
	}
	scalar := &AdaptiveMonteCarlo{Seed: 5}
	ref, _, err := adaptiveTrials(scalar, qg)
	if err != nil {
		t.Fatal(err)
	}
	// Both estimators stop once adjacent gaps are resolved at eps=0.02;
	// their score vectors can differ by a few eps on near-tied answers
	// but never wholesale.
	for i := range ref {
		if math.Abs(scores[i]-ref[i]) > 0.1 {
			t.Errorf("answer %d: adaptive worlds %v vs scalar %v", i, scores[i], ref[i])
		}
	}
}

// TestTopKRacerWorldsAgreesWithFixedReference races bit-parallel and
// checks the certified top k against a large fixed-budget scalar
// reference, up to sub-eps ties — the same agreement bar the scalar
// racer is held to.
func TestTopKRacerWorldsAgreesWithFixedReference(t *testing.T) {
	const k, eps = 5, 0.02
	qg := benchGraph(150, 50)
	ref, err := (&MonteCarlo{Trials: 4 * DefaultTrials, Seed: 2}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	racer := &TopKRacer{K: k, Seed: 2, Worlds: true}
	res, rs, err := racer.RankWithStatsCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	refOrder := ArgsortDesc(ref.Scores)
	gotOrder := ArgsortDesc(res.Scores)
	for pos := 0; pos < k; pos++ {
		if refOrder[pos] == gotOrder[pos] {
			continue
		}
		if gap := ref.Scores[refOrder[pos]] - ref.Scores[gotOrder[pos]]; gap > eps {
			t.Errorf("rank %d: racer picked answer %d (ref %v), reference has %d (%v)",
				pos+1, gotOrder[pos], ref.Scores[gotOrder[pos]], refOrder[pos], ref.Scores[refOrder[pos]])
		}
	}
	if rs.OpStats.Trials == 0 || rs.OpStats.Trials%kernel.WordSize != 0 {
		t.Errorf("racer worlds consumed %d trials, want a positive multiple of %d", rs.OpStats.Trials, kernel.WordSize)
	}
	if rs.Pruned == 0 {
		t.Error("bit-parallel racer eliminated nobody on the wide bench graph")
	}
}

// TestServedSamplersRunBlockKernel pins that every sampled estimator
// Spec.Ranker serves runs on the block kernel over the full query graph
// whether or not the deprecated Worlds and Reduce fields are set: its
// output equals the non-reducing block-kernel struct's bit for bit, and
// neither field touches Spec.Key (the result-cache key).
func TestServedSamplersRunBlockKernel(t *testing.T) {
	qg := benchGraph(150, 50)
	cases := []struct {
		name string
		est  Estimator
		want Ranker
	}{
		{"fixed", Estimator{Trials: 3000, Seed: 7},
			&MonteCarlo{Trials: 3000, Seed: 7, Worlds: true}},
		{"fixed/workers", Estimator{Trials: 3000, Seed: 7, Workers: 4},
			&MonteCarlo{Trials: 3000, Seed: 7, Workers: 4, Worlds: true}},
		{"adaptive", Estimator{Trials: 6000, Seed: 11, Adaptive: true},
			&AdaptiveMonteCarlo{MaxTrials: 6000, Seed: 11, Worlds: true}},
		{"racer", Estimator{Trials: 6000, Seed: 13, TopK: 3},
			&TopKRacer{K: 3, MaxTrials: 6000, Seed: 13, Worlds: true}},
		{"planner", Estimator{Trials: 6000, Seed: 17, Planner: true, TopK: 3},
			&HybridPlanner{K: 3, MaxTrials: 6000, Seed: 17, Worlds: true}},
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, c := range cases {
		want, err := c.want.RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var key Estimator
		for i, d := range []struct{ worlds, reduce bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			est := c.est
			est.Worlds, est.Reduce = d.worlds, d.reduce
			spec, err := est.For("reliability")
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if i == 0 {
				key = spec.Key
			} else if spec.Key != key {
				t.Errorf("%s worlds=%v reduce=%v: Spec.Key %+v, want %+v", c.name, est.Worlds, est.Reduce, spec.Key, key)
			}
			got, err := spec.Ranker(nil).RankCtx(context.Background(), qg)
			if err != nil {
				t.Fatalf("%s worlds=%v reduce=%v: %v", c.name, est.Worlds, est.Reduce, err)
			}
			if !reflect.DeepEqual(bits(got.Scores), bits(want.Scores)) || !reflect.DeepEqual(bits(got.Lo), bits(want.Lo)) ||
				!reflect.DeepEqual(bits(got.Hi), bits(want.Hi)) || !reflect.DeepEqual(got.Exact, want.Exact) ||
				got.Truncated != want.Truncated {
				t.Errorf("%s worlds=%v reduce=%v: served result differs from the block-kernel struct's", c.name, est.Worlds, est.Reduce)
			}
		}
	}
}

// TestWorldsReduceComposition checks Worlds composes with the Section
// 3.1.2 reductions: the reduced-graph bit-parallel estimate still
// matches Figure 4a's exact value.
func TestWorldsReduceComposition(t *testing.T) {
	const trials = 64000
	mc := &MonteCarlo{Trials: trials, Seed: 11, Worlds: true, Reduce: true}
	res, err := mc.RankCtx(context.Background(), fig4a())
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5
	sigma := math.Sqrt(want * (1 - want) / trials)
	if math.Abs(res.Scores[0]-want) > 5*sigma {
		t.Errorf("reduced worlds estimate %v vs exact %v (σ=%v)", res.Scores[0], want, sigma)
	}
}
