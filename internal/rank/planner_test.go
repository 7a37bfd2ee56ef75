package rank

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

// TestNoFactoringProbeSpendsZeroSteps is the ClosedForm budget-semantics
// regression: on the Wheatstone bridge (not closed-form reducible) the
// NoFactoring probe must report failure immediately, with zero
// conditioning steps burned — the old behavior silently promoted budget
// 0 to DefaultConditioningBudget and factored the bridge exactly.
func TestNoFactoringProbeSpendsZeroSteps(t *testing.T) {
	qg := fig4b()
	v, steps, err := exactTarget(qg, qg.Answers[0], NoFactoring)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("NoFactoring on the bridge: err = %v, want ErrBudgetExhausted", err)
	}
	if steps != 0 {
		t.Fatalf("NoFactoring probe burned %d conditioning steps, want 0", steps)
	}
	if v != 0 {
		t.Fatalf("failed probe returned score %v, want 0", v)
	}
	// The same sentinel through the public API.
	if _, _, err := ExactReliability(qg, NoFactoring); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("ExactReliability(bridge, NoFactoring) err = %v, want ErrBudgetExhausted", err)
	}
	// A reducible graph still solves under NoFactoring.
	qa := fig4a()
	scores, cond, err := ExactReliability(qa, NoFactoring)
	if err != nil {
		t.Fatal(err)
	}
	if cond[0] != 0 || math.Abs(scores[0]-0.5) > 1e-12 {
		t.Fatalf("fig4a under NoFactoring: scores=%v cond=%v", scores, cond)
	}
	// Budget 0 keeps its documented meaning: the default budget, which
	// factors the bridge exactly.
	scores, _, err = ExactReliability(qg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scores[0]-0.46875) > 1e-12 {
		t.Fatalf("ExactReliability(bridge, 0) = %v, want 0.46875", scores[0])
	}
}

func TestClosedFormIrreducibleScoreIsZeroAndFree(t *testing.T) {
	scores, reducible, err := ClosedForm(fig4b())
	if err != nil {
		t.Fatal(err)
	}
	if reducible[0] {
		t.Fatal("bridge must not be closed-form reducible")
	}
	if scores[0] != 0 {
		t.Fatalf("irreducible answer score = %v, want the documented 0 placeholder", scores[0])
	}
}

// TestPlannerExactMatchesExactReliability is the bit-for-bit property:
// every answer the planner routes exactly must carry precisely the score
// ExactReliability computes, with a zero-width interval and zero trials.
func TestPlannerExactMatchesExactReliability(t *testing.T) {
	rng := prob.NewRNG(17)
	graphs := []graphCase{{name: "fig4a", qg: fig4a()}, {name: "fig4b", qg: fig4b()}}
	for i := 0; i < 15; i++ {
		graphs = append(graphs, graphCase{name: "rand", qg: randomDAG(rng)})
	}
	for gi, gc := range graphs {
		want, _, err := ExactReliability(gc.qg, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := &HybridPlanner{Seed: uint64(gi), MaxTrials: 20000}
		res, ps, err := p.RankWithStatsCtx(context.Background(), gc.qg)
		if err != nil {
			t.Fatal(err)
		}
		exactSeen := 0
		for i := range res.Scores {
			if !res.Exact[i] {
				// Monte Carlo route: estimate must still be close.
				if math.Abs(res.Scores[i]-want[i]) > 0.05 {
					t.Errorf("%s[%d] answer %d: MC %v vs exact %v", gc.name, gi, i, res.Scores[i], want[i])
				}
				if res.Lo[i] > res.Scores[i] || res.Hi[i] < res.Scores[i] {
					t.Errorf("%s[%d] answer %d: interval [%v,%v] excludes score %v",
						gc.name, gi, i, res.Lo[i], res.Hi[i], res.Scores[i])
				}
				continue
			}
			exactSeen++
			if res.Scores[i] != want[i] {
				t.Errorf("%s[%d] answer %d: planner-exact %v != ExactReliability %v (must be bit-for-bit)",
					gc.name, gi, i, res.Scores[i], want[i])
			}
			if res.Lo[i] != want[i] || res.Hi[i] != want[i] {
				t.Errorf("%s[%d] answer %d: exact interval [%v,%v], want zero width at %v",
					gc.name, gi, i, res.Lo[i], res.Hi[i], want[i])
			}
			if ps.TrialsPerCandidate[i] != 0 {
				t.Errorf("%s[%d] answer %d: exact answer consumed %d trials",
					gc.name, gi, i, ps.TrialsPerCandidate[i])
			}
		}
		if exactSeen != ps.ExactAnswers {
			t.Errorf("%s[%d]: Exact marks %d answers, stats say %d", gc.name, gi, exactSeen, ps.ExactAnswers)
		}
	}
}

type graphCase struct {
	name string
	qg   *graph.QueryGraph
}

func TestPlannerBridgeRoutesByBudget(t *testing.T) {
	qg := fig4b()
	// Default budget: the bridge factors in a handful of steps, so the
	// planner solves it exactly and never simulates.
	p := &HybridPlanner{Seed: 1}
	res, ps, err := p.RankWithStatsCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact[0] || res.Scores[0] != 0.46875 {
		t.Fatalf("bridge under default budget: exact=%v score=%v, want exact 0.46875", res.Exact[0], res.Scores[0])
	}
	if ps.ExactAnswers != 1 || ps.ClosedFormAnswers != 0 {
		t.Fatalf("bridge stats: %+v, want 1 exact (factored, not closed form)", ps)
	}
	if ps.Conditionings == 0 {
		t.Fatal("factoring the bridge must report conditioning steps")
	}
	if ps.Rounds != 0 || ps.CandidateTrials() != 0 {
		t.Fatalf("all-exact query still simulated: rounds=%d trials=%d", ps.Rounds, ps.CandidateTrials())
	}
	// NoFactoring budget: the bridge is not closed-form reducible, so it
	// must take the Monte Carlo route.
	// A single-candidate race resolves after its first batch, so the
	// batch size is the effective trial count here.
	p = &HybridPlanner{ExactBudget: NoFactoring, Seed: 1, Batch: 20000, MaxTrials: 50000}
	res, ps, err = p.RankWithStatsCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact[0] {
		t.Fatal("bridge must not be exact under NoFactoring")
	}
	if ps.Conditionings != 0 {
		t.Fatalf("NoFactoring probe burned %d conditionings", ps.Conditionings)
	}
	if math.Abs(res.Scores[0]-0.46875) > 0.02 {
		t.Fatalf("bridge MC estimate %v too far from 0.46875", res.Scores[0])
	}
	if !(res.Lo[0] < res.Scores[0] && res.Scores[0] < res.Hi[0]) {
		t.Fatalf("MC interval [%v,%v] should strictly contain estimate %v", res.Lo[0], res.Hi[0], res.Scores[0])
	}
	if ps.TrialsPerCandidate[0] == 0 {
		t.Fatal("MC-routed answer reports zero trials")
	}
}

func TestPlannerJeffreysIntervals(t *testing.T) {
	qg := fig4b()
	w := &HybridPlanner{ExactBudget: NoFactoring, Seed: 3, MaxTrials: 20000}
	j := &HybridPlanner{ExactBudget: NoFactoring, Seed: 3, MaxTrials: 20000, Jeffreys: true}
	rw, _, err := w.RankWithStatsCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	rj, _, err := j.RankWithStatsCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Scores[0] != rj.Scores[0] {
		t.Fatal("interval family must not change the estimate")
	}
	if rw.Lo[0] == rj.Lo[0] && rw.Hi[0] == rj.Hi[0] {
		t.Fatal("Wilson and Jeffreys intervals should differ")
	}
	if math.Abs(rw.Lo[0]-rj.Lo[0]) > 0.01 || math.Abs(rw.Hi[0]-rj.Hi[0]) > 0.01 {
		t.Fatalf("Wilson [%v,%v] and Jeffreys [%v,%v] should roughly agree",
			rw.Lo[0], rw.Hi[0], rj.Lo[0], rj.Hi[0])
	}
}

// TestPlannerRankAllPrecedence: Planner outranks TopK and Adaptive in
// option precedence, and its results flow through RankAll.
func TestPlannerRankAllPrecedence(t *testing.T) {
	qg := fig4b()
	out, err := RankAllCtx(context.Background(), qg, AllOptions{Planner: true, TopK: 1, Adaptive: true, Seed: 1, Methods: []string{"reliability"}})
	if err != nil {
		t.Fatal(err)
	}
	res := out["reliability"]
	if len(res.Exact) != 1 || !res.Exact[0] {
		t.Fatalf("RankAll planner result missing exact marker: %+v", res)
	}
	if res.Scores[0] != 0.46875 {
		t.Fatalf("RankAll planner score %v, want exact 0.46875", res.Scores[0])
	}
	if !(AllOptions{}).UsesPlan("reliability") {
		t.Fatal("plain reliability should use the shared plan")
	}
	if !(AllOptions{Planner: true, Reduce: true}).UsesPlan("reliability") {
		t.Fatal("planner reliability should use the shared plan even under Reduce")
	}
	if (AllOptions{Exact: true, Planner: true}).UsesPlan("reliability") {
		t.Fatal("exact reliability never touches a plan")
	}
}

// TestExactEvaluatorPoolSafety hammers the pooled factoring evaluator
// from many goroutines; under -race this pins the arena-sharing rules
// (shared immutable metadata, per-goroutine branch arenas), and the
// determinism check pins value stability across pool reuse.
func TestExactEvaluatorPoolSafety(t *testing.T) {
	rng := prob.NewRNG(77)
	graphs := []*graph.QueryGraph{fig4a(), fig4b()}
	for i := 0; i < 6; i++ {
		graphs = append(graphs, randomDAG(rng))
	}
	baseline := make([][]float64, len(graphs))
	for i, qg := range graphs {
		s, _, err := ExactReliability(qg, 0)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = s
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				for i, qg := range graphs {
					s, _, err := ExactReliability(qg, 0)
					if err != nil {
						errc <- err
						return
					}
					for j := range s {
						if s[j] != baseline[i][j] {
							t.Errorf("pooled evaluation drifted: graph %d answer %d: %v vs %v",
								i, j, s[j], baseline[i][j])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
