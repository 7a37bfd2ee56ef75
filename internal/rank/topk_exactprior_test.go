package rank

import (
	"context"
	"fmt"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/kernel"
)

// exactPriorRaceGraph is a star with one Monte Carlo candidate (answer
// 0, true reliability 0.95) and 49 answers destined to arrive as exact
// planner priors — enough candidates to shrink the per-interval delta
// so interval disjointness against the 0.85 prior cannot fire within a
// 512-trial cap, while the Theorem 3.1 certificate (TrialBound(0.10,
// 0.05) = 386 trials) comfortably can.
func exactPriorRaceGraph() *graph.QueryGraph {
	g := graph.New(51, 50)
	s := g.AddNode("Q", "s", 1)
	mc := g.AddNode("A", "a0", 1)
	g.AddEdge(s, mc, "r", 0.95)
	answers := []graph.NodeID{mc}
	for i := 1; i < 50; i++ {
		e := g.AddNode("A", fmt.Sprintf("e%d", i), 1)
		g.AddEdge(s, e, "r", 0.5)
		answers = append(answers, e)
	}
	qg, err := graph.NewQueryGraph(g, s, answers)
	if err != nil {
		panic(err)
	}
	return qg
}

// TestRacerExactPriorEarnsCertificate pins the topKResolved fix for
// planner-seeded races: an exact prior carries TrialsPerCandidate 0, so
// taking the pair MINIMUM of trial counts pinned every (MC, exact)
// boundary pair at zero trials — the Theorem 3.1 certificate could
// never fire and the race always ran to MaxTrials. The certificate is
// now earned by the MC member's count alone, so the race below must
// stop strictly before the cap: the boundary pair is the 0.95 MC
// candidate vs the 0.85 exact prior, whose ~0.10 gap is certified
// around 386 trials, while interval disjointness needs more trials than
// the 512 cap allows (the union bound over 50 candidates × 8 rounds
// puts the Hoeffding radius at ~0.10 even at the cap).
func TestRacerExactPriorEarnsCertificate(t *testing.T) {
	qg := exactPriorRaceGraph()
	plan := kernel.Compile(qg)
	const cap = 512
	r := &TopKRacer{K: 1, Batch: 64, MaxTrials: cap, Seed: 3}
	priors := []exactPrior{{idx: 1, score: 0.85}}
	for i := 2; i < 50; i++ {
		priors = append(priors, exactPrior{idx: i, score: 0.1})
	}
	var rs RaceStats
	scores := r.raceWithPriors(context.Background(), plan, &rs, priors)
	if got := rs.TrialsPerCandidate[0]; got >= cap {
		t.Fatalf("planner-seeded race ran %d trials (the cap): the exact-prior pair never earned the Theorem 3.1 certificate", got)
	}
	// The priors never simulate and keep their zero-width intervals.
	for _, p := range priors {
		if rs.TrialsPerCandidate[p.idx] != 0 {
			t.Fatalf("exact prior %d simulated %d trials", p.idx, rs.TrialsPerCandidate[p.idx])
		}
		if rs.Lo[p.idx] != p.score || rs.Hi[p.idx] != p.score || scores[p.idx] != p.score {
			t.Fatalf("exact prior %d: interval [%v, %v] score %v, want the zero-width %v", p.idx, rs.Lo[p.idx], rs.Hi[p.idx], scores[p.idx], p.score)
		}
	}
	if scores[0] < 0.9 || scores[0] > 1 {
		t.Fatalf("MC candidate scored %v, want ≈0.95", scores[0])
	}
}

// TestRacerTwoExactPriorsResolve covers the both-exact clause: when
// every candidate arrives exact the race must return immediately with
// zero rounds — two known scores have a known order, not a sampled one.
func TestRacerTwoExactPriorsResolve(t *testing.T) {
	qg := nearTieGraph()
	plan := kernel.Compile(qg)
	r := &TopKRacer{K: 2, MaxTrials: 512, Seed: 3}
	var rs RaceStats
	scores := r.raceWithPriors(context.Background(), plan, &rs, []exactPrior{{idx: 0, score: 0.5}, {idx: 1, score: 0.502}})
	if rs.Rounds != 0 {
		t.Fatalf("all-exact race simulated %d rounds", rs.Rounds)
	}
	if scores[0] != 0.5 || scores[1] != 0.502 {
		t.Fatalf("all-exact race returned scores %v", scores)
	}
}

// TestWorldsRacerSharedSampleDeterministic pins the shared-sample
// contract end to end: under Worlds every surviving candidate is judged
// against the same sampled world blocks, and the whole race — scores,
// intervals, per-candidate trials, prune count, round count — is a
// fixed function of (graph, seed, parameters).
func TestWorldsRacerSharedSampleDeterministic(t *testing.T) {
	g := graph.New(10, 9)
	s := g.AddNode("Q", "s", 1)
	var answers []graph.NodeID
	for i, q := range []float64{0.9, 0.7, 0.5, 0.3, 0.25, 0.2, 0.15, 0.1} {
		a := g.AddNode("A", fmt.Sprintf("a%d", i), 1)
		g.AddEdge(s, a, "r", q)
		answers = append(answers, a)
	}
	qg, err := graph.NewQueryGraph(g, s, answers)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (Result, RaceStats) {
		r := &TopKRacer{K: 2, Batch: 500, MaxTrials: 20000, Seed: 11, Worlds: true}
		res, rs, err := r.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		return res, rs.RaceStats
	}
	res1, rs1 := run()
	res2, rs2 := run()
	if rs1.Pruned == 0 {
		t.Fatal("race pruned nothing; the test should exercise elimination")
	}
	if rs1.Pruned != rs2.Pruned || rs1.Rounds != rs2.Rounds {
		t.Fatalf("race shape diverged: %d/%d pruned, %d/%d rounds", rs1.Pruned, rs2.Pruned, rs1.Rounds, rs2.Rounds)
	}
	for i := range res1.Scores {
		if res1.Scores[i] != res2.Scores[i] || rs1.Lo[i] != rs2.Lo[i] || rs1.Hi[i] != rs2.Hi[i] ||
			rs1.TrialsPerCandidate[i] != rs2.TrialsPerCandidate[i] {
			t.Fatalf("candidate %d diverged between identical runs: score %v/%v trials %d/%d",
				i, res1.Scores[i], res2.Scores[i], rs1.TrialsPerCandidate[i], rs2.TrialsPerCandidate[i])
		}
	}
}
