package rank

import (
	"context"
	"math"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

// adaptiveTrials runs a and returns its scores and how many trials its
// stopping rule consumed.
func adaptiveTrials(a *AdaptiveMonteCarlo, qg *graph.QueryGraph) ([]float64, int, error) {
	res, ops, err := a.RankWithStatsCtx(context.Background(), qg)
	return res.Scores, int(ops.Trials), err
}

func TestAdaptiveMatchesExact(t *testing.T) {
	rng := prob.NewRNG(83)
	for trial := 0; trial < 10; trial++ {
		qg := randomDAG(rng)
		exact := bruteReliability(qg)
		a := &AdaptiveMonteCarlo{Seed: uint64(trial), MaxTrials: 200000}
		scores, used, err := adaptiveTrials(a, qg)
		if err != nil {
			t.Fatal(err)
		}
		if used <= 0 || used > 200000 {
			t.Fatalf("trial count %d out of range", used)
		}
		for i := range exact {
			// The stopping rule certifies ordering, not values; allow a
			// looser tolerance than fixed-n tests.
			if math.Abs(scores[i]-exact[i]) > 0.05 {
				t.Errorf("trial %d answer %d: adaptive %v vs exact %v (n=%d)",
					trial, i, scores[i], exact[i], used)
			}
		}
	}
}

func TestAdaptiveStopsEarlyOnSeparatedScores(t *testing.T) {
	// Two answers with reliabilities 0.9 and 0.1: a huge gap should be
	// certified with far fewer trials than the cap.
	g := graph.New(3, 2)
	s := g.AddNode("Q", "s", 1)
	hi := g.AddNode("A", "hi", 1)
	lo := g.AddNode("A", "lo", 1)
	g.AddEdge(s, hi, "r", 0.9)
	g.AddEdge(s, lo, "r", 0.1)
	qg, _ := graph.NewQueryGraph(g, s, []graph.NodeID{hi, lo})
	a := &AdaptiveMonteCarlo{Seed: 1, Batch: 200, MaxTrials: 100000}
	_, used, err := adaptiveTrials(a, qg)
	if err != nil {
		t.Fatal(err)
	}
	if used >= 10000 {
		t.Fatalf("well-separated scores should stop early, used %d trials", used)
	}
}

func TestAdaptiveTreatsTinyGapsAsTies(t *testing.T) {
	// Two nearly identical answers: the rule must not chase the
	// sub-epsilon gap to the trial cap.
	g := graph.New(3, 2)
	s := g.AddNode("Q", "s", 1)
	a1 := g.AddNode("A", "a1", 1)
	a2 := g.AddNode("A", "a2", 1)
	g.AddEdge(s, a1, "r", 0.500)
	g.AddEdge(s, a2, "r", 0.505)
	qg, _ := graph.NewQueryGraph(g, s, []graph.NodeID{a1, a2})
	am := &AdaptiveMonteCarlo{Seed: 2, Eps: 0.02, Batch: 500, MaxTrials: 400000}
	_, used, err := adaptiveTrials(am, qg)
	if err != nil {
		t.Fatal(err)
	}
	if used >= 400000 {
		t.Fatalf("sub-epsilon gap should be treated as a tie, used %d trials", used)
	}
}

func TestAdaptiveDeterministic(t *testing.T) {
	qg := fig4b()
	am := &AdaptiveMonteCarlo{Seed: 7}
	s1, n1, err := adaptiveTrials(am, qg)
	if err != nil {
		t.Fatal(err)
	}
	s2, n2, err := adaptiveTrials(am, qg)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || s1[0] != s2[0] {
		t.Fatal("adaptive MC not deterministic for a fixed seed")
	}
}

func TestAdaptiveHonorsMaxTrialsExactly(t *testing.T) {
	// A graph the stopping rule can never certify (gap just above eps,
	// below any reachable bound) with a cap that is not a multiple of
	// the batch size: the estimator must stop at exactly MaxTrials, not
	// overshoot by a partial batch.
	g := graph.New(3, 2)
	s := g.AddNode("Q", "s", 1)
	a1 := g.AddNode("A", "a1", 1)
	a2 := g.AddNode("A", "a2", 1)
	g.AddEdge(s, a1, "r", 0.60)
	g.AddEdge(s, a2, "r", 0.55)
	qg, _ := graph.NewQueryGraph(g, s, []graph.NodeID{a1, a2})
	am := &AdaptiveMonteCarlo{Seed: 3, Eps: 0.02, Batch: 500, MaxTrials: 1600}
	_, used, err := adaptiveTrials(am, qg)
	if err != nil {
		t.Fatal(err)
	}
	if used > 1600 {
		t.Fatalf("ran %d trials, cap is 1600", used)
	}
}

func TestAdaptiveRejectsNil(t *testing.T) {
	if _, err := (&AdaptiveMonteCarlo{}).RankCtx(context.Background(), nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestAdaptiveString(t *testing.T) {
	s := (&AdaptiveMonteCarlo{}).String()
	if s == "" {
		t.Fatal("empty description")
	}
}

// TestCertifiedTopKEdgeCases pins the boundary behavior of the shared
// stopping-rule bound logic that both AdaptiveMonteCarlo and TopKRacer
// depend on: TopK values at or past the answer-set size, and degenerate
// single-answer and empty score vectors, must never index past the
// sorted scratch slice.
func TestCertifiedTopKEdgeCases(t *testing.T) {
	certify := func(topK int, scores []float64, trials int) bool {
		a := &AdaptiveMonteCarlo{TopK: topK}
		sorted := make([]float64, len(scores))
		return a.certified(scores, sorted, trials, 0.02, 0.05)
	}
	scores := []float64{0.9, 0.5, 0.1}

	// TopK >= len(scores): the full ranking is inspected, no
	// out-of-range access.
	for _, k := range []int{len(scores), len(scores) + 1, len(scores) + 100} {
		if certify(k, scores, 1) {
			t.Errorf("TopK=%d certified 0.4-gaps after 1 trial", k)
		}
		if !certify(k, scores, DefaultTrials*10) {
			t.Errorf("TopK=%d not certified at a huge trial count", k)
		}
	}

	// TopK == len-1: inspects every gap including the last boundary.
	if certify(len(scores)-1, scores, 1) {
		t.Error("TopK=len-1 certified after 1 trial")
	}

	// Single-answer graphs have nothing to separate: certified at once.
	if !certify(0, []float64{0.7}, 1) {
		t.Error("single score not immediately certified")
	}
	if !certify(5, []float64{0.7}, 1) {
		t.Error("single score with TopK>len not immediately certified")
	}

	// Empty score vectors (answer-less query graphs) must not panic.
	if !certify(0, nil, 1) || !certify(3, nil, 1) {
		t.Error("empty scores not immediately certified")
	}
}

// TestAdaptiveSingleNodeGraph runs the full adaptive estimator on a
// one-node query graph (source == answer): the stopping rule must stop
// after the first batch instead of indexing past sorted.
func TestAdaptiveSingleNodeGraph(t *testing.T) {
	g := graph.New(1, 0)
	s := g.AddNode("Q", "s", 0.6)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{s})
	if err != nil {
		t.Fatal(err)
	}
	for _, topK := range []int{0, 1, 2} {
		a := &AdaptiveMonteCarlo{Seed: 1, TopK: topK}
		res, ops, err := a.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Scores) != 1 || math.Abs(res.Scores[0]-0.6) > 0.1 {
			t.Fatalf("TopK=%d: scores %v, want ~[0.6]", topK, res.Scores)
		}
		if ops.Trials != 500 {
			t.Errorf("TopK=%d: ran %d trials, want one 500-trial batch", topK, ops.Trials)
		}
	}
}

// TestGapCertified covers the shared pairwise certificate directly.
func TestGapCertified(t *testing.T) {
	// Sub-eps gaps are ties regardless of trials.
	if !gapCertified(0.01, 0, 0.02, 0.05) {
		t.Error("sub-eps gap not treated as tie")
	}
	// Gaps >= 1 (scores 1 and 0) are separated by any trial count.
	if !gapCertified(1, 1, 0.02, 0.05) {
		t.Error("gap 1 not certified")
	}
	// A 0.1 gap needs TrialBound(0.1, 0.05) trials, not fewer.
	need, err := TrialBound(0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if gapCertified(0.1, need-1, 0.02, 0.05) {
		t.Error("certified below the trial bound")
	}
	if !gapCertified(0.1, need, 0.02, 0.05) {
		t.Error("not certified at the trial bound")
	}
}
