package experiments

import (
	"context"
	"sort"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/rank"
)

// TestAdaptiveStopsEarlyOnFigure8Workload is the acceptance check for
// the adaptive Monte Carlo mode on the Figure 8 workload (the
// scenario-1 query graphs): the stopping rule must spend strictly fewer
// trials than the fixed Theorem 3.1 budget while producing the same
// top-k ranking the fixed-budget simulation produces.
func TestAdaptiveStopsEarlyOnFigure8Workload(t *testing.T) {
	s := suite(t)
	const (
		seed = 7
		topK = 5
		eps  = 0.02 // the paper's separation of interest
	)
	var fixedTrials, adaptiveTrials int64
	for gi, qg := range s.Graphs12 {
		fixed := &rank.MonteCarlo{Trials: rank.DefaultTrials, Seed: seed}
		fres, fops, err := fixed.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		fixedTrials += fops.Trials

		adaptive := &rank.AdaptiveMonteCarlo{Seed: seed, TopK: topK}
		ares, aops, err := adaptive.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		adaptiveTrials += aops.Trials

		if aops.Trials >= fops.Trials {
			t.Errorf("graph %d: adaptive ran %d trials, fixed budget is %d — no early stop",
				gi, aops.Trials, fops.Trials)
		}

		fTop := topAnswers(qg, fres.Scores, topK)
		aTop := topAnswers(qg, ares.Scores, topK)
		for i := range fTop {
			if fTop[i] == aTop[i] {
				continue
			}
			// The stopping rule certifies order only for gaps >= eps;
			// answers closer than that are interchangeable ties, so a
			// positional swap is only an error when the fixed-budget
			// scores were actually separated.
			if gap := scoreOf(qg, fres.Scores, fTop[i]) - scoreOf(qg, fres.Scores, aTop[i]); gap > eps || gap < -eps {
				t.Errorf("graph %d rank %d: adaptive put %d where fixed put %d (fixed-score gap %v)",
					gi, i+1, aTop[i], fTop[i], gap)
			}
		}
	}
	if adaptiveTrials >= fixedTrials {
		t.Fatalf("adaptive total %d trials >= fixed total %d", adaptiveTrials, fixedTrials)
	}
	t.Logf("figure-8 workload: fixed %d trials vs adaptive %d (%.1f%% of budget)",
		fixedTrials, adaptiveTrials, 100*float64(adaptiveTrials)/float64(fixedTrials))
}

// topAnswers returns the answer node IDs of the k highest scores,
// descending, ties broken by answer order (matching the facade's stable
// sort).
func topAnswers(qg *graph.QueryGraph, scores []float64, k int) []graph.NodeID {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]graph.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = qg.Answers[idx[i]]
	}
	return out
}

// scoreOf returns the score of an answer node ID.
func scoreOf(qg *graph.QueryGraph, scores []float64, id graph.NodeID) float64 {
	for i, a := range qg.Answers {
		if a == id {
			return scores[i]
		}
	}
	return 0
}
