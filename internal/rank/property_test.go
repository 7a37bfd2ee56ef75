package rank

import (
	"context"
	"math"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

// Property-based tests over random DAG query graphs, cross-checking the
// structural claims the paper makes about the five semantics.

func TestPropertyPropagationDominatesReliability(t *testing.T) {
	// Section 3.2: "the propagation scores will always be bigger or
	// equal to reliability scores" (paths treated as independent can
	// only overestimate).
	rng := prob.NewRNG(101)
	for trial := 0; trial < 100; trial++ {
		qg := randomDAG(rng)
		rel := bruteReliability(qg)
		res, err := (&Propagation{}).RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rel {
			if res.Scores[i] < rel[i]-1e-9 {
				t.Fatalf("trial %d answer %d: propagation %v < reliability %v\n%s",
					trial, i, res.Scores[i], rel[i], qg.DOT("g"))
			}
		}
	}
}

func TestPropertyScoresWithinUnitInterval(t *testing.T) {
	rng := prob.NewRNG(103)
	for trial := 0; trial < 50; trial++ {
		qg := randomDAG(rng)
		for _, r := range []Ranker{Exact{}, &Propagation{}, &Diffusion{}} {
			res, err := r.RankCtx(context.Background(), qg)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range res.Scores {
				if s < -1e-12 || s > 1+1e-12 {
					t.Fatalf("trial %d %s answer %d: score %v outside [0,1]",
						trial, r.Name(), i, s)
				}
			}
		}
	}
}

func TestPropertyReliabilityMonotoneInProbabilities(t *testing.T) {
	// Raising any single probability can only raise reliability.
	rng := prob.NewRNG(107)
	for trial := 0; trial < 40; trial++ {
		qg := randomDAG(rng)
		base := bruteReliability(qg)
		bumped := qg.CloneShallowProbs()
		// Raise every probability by a bit (capped at 1).
		for i := 0; i < bumped.NumNodes(); i++ {
			id := graph.NodeID(i)
			bumped.SetNodeP(id, math.Min(1, bumped.Node(id).P+0.1))
		}
		for i := 0; i < bumped.NumEdges(); i++ {
			id := graph.EdgeID(i)
			bumped.SetEdgeQ(id, math.Min(1, bumped.Edge(id).Q+0.1))
		}
		after := bruteReliability(bumped)
		for i := range base {
			if after[i] < base[i]-1e-9 {
				t.Fatalf("trial %d: reliability decreased after raising probabilities: %v -> %v",
					trial, base[i], after[i])
			}
		}
	}
}

func TestPropertyExactStableUnderReduction(t *testing.T) {
	// Exact reliability must not change when computed on the reduced
	// graph (the closed-form path exercises this too, but here we pin
	// exact==exact∘reduce over random instances).
	rng := prob.NewRNG(109)
	for trial := 0; trial < 40; trial++ {
		qg := randomDAG(rng)
		want, _, err := ExactReliability(qg, 0)
		if err != nil {
			t.Fatal(err)
		}
		red, _, mapping := ReduceAll(qg)
		got, _, err := ExactReliability(red, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			g := 0.0
			if mapping[i] >= 0 {
				g = got[mapping[i]]
			}
			if math.Abs(g-want[i]) > 1e-9 {
				t.Fatalf("trial %d answer %d: %v vs %v", trial, i, g, want[i])
			}
		}
	}
}

func TestPropertyDiffusionBelowPropagation(t *testing.T) {
	// Diffusion throttles flow (only the surplus over r̄ diffuses), so on
	// any graph its scores cannot exceed propagation's.
	rng := prob.NewRNG(113)
	for trial := 0; trial < 50; trial++ {
		qg := randomDAG(rng)
		d, err := (&Diffusion{}).RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := (&Propagation{}).RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d.Scores {
			if d.Scores[i] > p.Scores[i]+1e-9 {
				t.Fatalf("trial %d answer %d: diffusion %v > propagation %v",
					trial, i, d.Scores[i], p.Scores[i])
			}
		}
	}
}
