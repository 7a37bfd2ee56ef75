package rank

import (
	"context"
	"math"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

// TestTopKRacerMatchesOracleOnSmallGraphs is the correctness property
// test of the racer: on random small DAGs the certified top-k set and
// order must match the exact possible-worlds reliability, up to
// sub-epsilon ties.
func TestTopKRacerMatchesOracleOnSmallGraphs(t *testing.T) {
	const (
		k   = 3
		eps = 0.02
	)
	rng := prob.NewRNG(42)
	for trial := 0; trial < 25; trial++ {
		qg := randomDAG(rng)
		exact := bruteReliability(qg)
		racer := &TopKRacer{K: k, Seed: uint64(1000 + trial)}
		res, rs, err := racer.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Scores) != len(qg.Answers) {
			t.Fatalf("trial %d: %d scores for %d answers", trial, len(res.Scores), len(qg.Answers))
		}
		exactTop := argsortDesc(exact)
		racerTop := argsortDesc(res.Scores)
		limit := k
		if limit > len(exactTop) {
			limit = len(exactTop)
		}
		for pos := 0; pos < limit; pos++ {
			if exactTop[pos] == racerTop[pos] {
				continue
			}
			// A positional difference is only an error when the exact
			// scores are separated by more than the certified eps —
			// closer answers are interchangeable ties.
			gap := exact[exactTop[pos]] - exact[racerTop[pos]]
			if gap > eps || gap < -eps {
				t.Errorf("trial %d rank %d: racer put answer %d (exact %.4f) where exact puts %d (%.4f)",
					trial, pos+1, racerTop[pos], exact[racerTop[pos]], exactTop[pos], exact[exactTop[pos]])
			}
		}
		// The certified bounds must contain the exact value for every
		// candidate that was still active at the end (bounds of pruned
		// candidates were valid at their elimination round).
		for i := range exact {
			if rs.Lo[i] > exact[i]+1e-9 || rs.Hi[i] < exact[i]-1e-9 {
				// Bound violations have probability <= Delta per race; a
				// hard failure across this fixed-seed suite would be a
				// logic bug, but tolerate the statistical case by
				// checking the violation is small.
				if rs.Lo[i]-exact[i] > 0.05 || exact[i]-rs.Hi[i] > 0.05 {
					t.Errorf("trial %d answer %d: exact %.4f far outside certified [%.4f, %.4f]",
						trial, i, exact[i], rs.Lo[i], rs.Hi[i])
				}
			}
		}
	}
}

// TestTopKRacerPrunesAndSavesTrials pins the economics on the benchmark
// graph: the racer must eliminate candidates, spend strictly fewer
// candidate-trials than simulating every candidate to the same round
// count, and reproduce the fixed-budget top-k set.
func TestTopKRacerPrunesAndSavesTrials(t *testing.T) {
	const (
		k    = 5
		seed = 3
		eps  = 0.02
	)
	qg := benchGraph(150, 50)
	fixed := &MonteCarlo{Trials: DefaultTrials, Seed: seed}
	fres, err := fixed.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	racer := &TopKRacer{K: k, Seed: seed}
	res, rs, err := racer.RankWithStatsCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Pruned == 0 {
		t.Error("racer pruned no candidates on a 50-answer graph with k=5")
	}
	full := rs.Trials * int64(len(res.Scores))
	if got := rs.CandidateTrials(); got >= full {
		t.Errorf("candidate-trials %d not below full simulation %d", got, full)
	}
	fTop := argsortDesc(fres.Scores)[:k]
	rTop := argsortDesc(res.Scores)[:k]
	for pos := range fTop {
		if fTop[pos] == rTop[pos] {
			continue
		}
		if gap := fres.Scores[fTop[pos]] - fres.Scores[rTop[pos]]; gap > eps || gap < -eps {
			t.Errorf("rank %d: racer answer %d vs fixed answer %d (fixed-score gap %v)",
				pos+1, rTop[pos], fTop[pos], gap)
		}
	}
	t.Logf("racer: %d rounds, %d kernel trials, %d/%d pruned, candidate-trials %d (full would be %d)",
		rs.Rounds, rs.Trials, rs.Pruned, len(res.Scores), rs.CandidateTrials(), full)
}

// TestTopKRacerEdgeCases covers the small-graph and clamping corners
// shared with the adaptive bound logic.
func TestTopKRacerEdgeCases(t *testing.T) {
	t.Run("single answer", func(t *testing.T) {
		qg := fig4a() // one answer node
		racer := &TopKRacer{K: 1, Seed: 1}
		res, rs, err := racer.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Scores) != 1 {
			t.Fatalf("want 1 score, got %d", len(res.Scores))
		}
		if math.Abs(res.Scores[0]-0.5) > 0.05 {
			t.Errorf("fig4a reliability %.4f, want ~0.5", res.Scores[0])
		}
		if rs.Rounds != 1 {
			t.Errorf("single-answer race ran %d rounds, want 1 (nothing to separate)", rs.Rounds)
		}
	})
	t.Run("k larger than answer set", func(t *testing.T) {
		rng := prob.NewRNG(5)
		qg := randomDAG(rng)
		racer := &TopKRacer{K: len(qg.Answers) + 10, Seed: 1}
		res, _, err := racer.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Scores) != len(qg.Answers) {
			t.Fatalf("want %d scores, got %d", len(qg.Answers), len(res.Scores))
		}
	})
	t.Run("k zero clamps to one", func(t *testing.T) {
		qg := fig4b()
		racer := &TopKRacer{Seed: 1} // K unset
		if _, _, err := racer.RankWithStatsCtx(context.Background(), qg); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("single node graph", func(t *testing.T) {
		g := graph.New(1, 0)
		s := g.AddNode("Q", "s", 0.7)
		qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{s})
		if err != nil {
			t.Fatal(err)
		}
		racer := &TopKRacer{K: 1, Seed: 1}
		res, _, err := racer.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Scores[0]-0.7) > 0.05 {
			t.Errorf("self-answer reliability %.4f, want ~0.7", res.Scores[0])
		}
	})
}

// TestTopKRacerDeterministic pins that a fixed seed reproduces the race
// bit for bit: scores, bounds, prune count and rounds.
func TestTopKRacerDeterministic(t *testing.T) {
	qg := benchGraph(80, 30)
	run := func() (Result, RaceStats) {
		racer := &TopKRacer{K: 5, Seed: 11}
		res, rs, err := racer.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		return res, rs.RaceStats
	}
	r1, s1 := run()
	r2, s2 := run()
	for i := range r1.Scores {
		if r1.Scores[i] != r2.Scores[i] || s1.Lo[i] != s2.Lo[i] || s1.Hi[i] != s2.Hi[i] {
			t.Fatalf("answer %d: runs diverged", i)
		}
	}
	if s1.Pruned != s2.Pruned || s1.Rounds != s2.Rounds || s1.Trials != s2.Trials {
		t.Fatalf("telemetry diverged: %+v vs %+v", s1.OpStats, s2.OpStats)
	}
}

// TestConfRadius sanity-checks the bound helper: radii shrink with n,
// the Bernstein branch wins in the low-variance tails, and degenerate
// inputs stay sane.
func TestConfRadius(t *testing.T) {
	if r := confRadius(0.5, 0, 0.05); r != 1 {
		t.Errorf("n=0 radius = %v, want 1", r)
	}
	r100 := confRadius(0.5, 100, 0.05)
	r10k := confRadius(0.5, 10000, 0.05)
	if !(r10k < r100) {
		t.Errorf("radius did not shrink with n: %v vs %v", r100, r10k)
	}
	// Near-certain candidates (tiny variance) must enjoy a much tighter
	// bound than maximal-variance ones at the same n — that asymmetry is
	// what retires tail candidates early.
	rTail := confRadius(0.01, 2000, 0.001)
	rMid := confRadius(0.5, 2000, 0.001)
	if !(rTail < rMid/2) {
		t.Errorf("Bernstein tail radius %v not well below mid radius %v", rTail, rMid)
	}
	for _, m := range []float64{0, 0.5, 1} {
		if r := confRadius(m, 500, 0.05); r <= 0 || math.IsNaN(r) {
			t.Errorf("confRadius(%v) = %v", m, r)
		}
	}
}

// argsortDesc is shorthand for the shared ordering helper.
func argsortDesc(scores []float64) []int { return ArgsortDesc(scores) }
