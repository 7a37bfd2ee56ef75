package rank

import (
	"context"
	"math"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

func TestPropagationEqualsReliabilityOnTrees(t *testing.T) {
	// Proposition 3.1: on trees rooted at the source, propagation and
	// reliability coincide. Build a random tree with edge probabilities.
	rng := prob.NewRNG(5)
	for trial := 0; trial < 20; trial++ {
		g := graph.New(10, 9)
		s := g.AddNode("Q", "s", 1)
		nodes := []graph.NodeID{s}
		for i := 0; i < 8; i++ {
			parent := nodes[rng.Intn(len(nodes))]
			n := g.AddNode("X", nodeLabel(0, i), 1)
			g.AddEdge(parent, n, "r", 0.1+0.9*rng.Float64())
			nodes = append(nodes, n)
		}
		qg, _ := graph.NewQueryGraph(g, s, nodes[1:])
		rel := bruteReliability(qg)
		res, err := (&Propagation{}).RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rel {
			if math.Abs(res.Scores[i]-rel[i]) > 1e-9 {
				t.Fatalf("trial %d answer %d: propagation %v vs reliability %v",
					trial, i, res.Scores[i], rel[i])
			}
		}
	}
}

func TestPropagationIterativeMatchesExactOnDAGs(t *testing.T) {
	rng := prob.NewRNG(6)
	for trial := 0; trial < 30; trial++ {
		qg := randomDAG(rng)
		exact, err := PropagationExact(qg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&Propagation{}).RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range qg.Answers {
			if math.Abs(res.Scores[i]-exact[a]) > 1e-9 {
				t.Fatalf("trial %d: iterative %v vs topological %v", trial, res.Scores[i], exact[a])
			}
		}
	}
}

func TestPropagationCycleBoost(t *testing.T) {
	// Section 3.2: on cyclic graphs propagation unfolds the cycle into
	// infinitely many "independent" paths and boosts scores. Compare the
	// score of t in s->a->t against s->a<->b->t where the cycle feeds a.
	acyc := graph.New(3, 2)
	s := acyc.AddNode("Q", "s", 1)
	a := acyc.AddNode("X", "a", 1)
	tt := acyc.AddNode("A", "t", 1)
	acyc.AddEdge(s, a, "r", 0.5)
	acyc.AddEdge(a, tt, "r", 0.5)
	qa, _ := graph.NewQueryGraph(acyc, s, []graph.NodeID{tt})

	cyc := graph.New(4, 4)
	s2 := cyc.AddNode("Q", "s", 1)
	a2 := cyc.AddNode("X", "a", 1)
	b2 := cyc.AddNode("X", "b", 1)
	t2 := cyc.AddNode("A", "t", 1)
	cyc.AddEdge(s2, a2, "r", 0.5)
	cyc.AddEdge(a2, b2, "r", 0.9)
	cyc.AddEdge(b2, a2, "r", 0.9)
	cyc.AddEdge(a2, t2, "r", 0.5)
	qc, _ := graph.NewQueryGraph(cyc, s2, []graph.NodeID{t2})

	ra, err := (&Propagation{}).RankCtx(context.Background(), qa)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := (&Propagation{}).RankCtx(context.Background(), qc)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Scores[0] <= ra.Scores[0] {
		t.Fatalf("cycle did not boost propagation: %v vs %v", rc.Scores[0], ra.Scores[0])
	}
	// Reliability, by contrast, is unaffected by the a<->b cycle.
	rel, _, err := ExactReliability(qc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rel[0]-0.25) > 1e-9 {
		t.Fatalf("cycle changed reliability: %v, want 0.25", rel[0])
	}
}

func TestPropagationFixedIterations(t *testing.T) {
	// With too few iterations, relevance has not yet reached distant
	// nodes; with enough, it matches the fixpoint.
	qg := fig4a() // longest path 3
	r1, err := (&Propagation{Iterations: 1}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Scores[0] != 0 {
		t.Fatalf("1 iteration should not reach the target: %v", r1.Scores[0])
	}
	r3, err := (&Propagation{Iterations: 3}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r3.Scores[0]-0.75) > 1e-12 {
		t.Fatalf("3 iterations should reach fixpoint: %v", r3.Scores[0])
	}
}

func TestPropagationExactRejectsCycles(t *testing.T) {
	g := graph.New(2, 2)
	a := g.AddNode("Q", "a", 1)
	b := g.AddNode("X", "b", 1)
	g.AddEdge(a, b, "r", 1)
	g.AddEdge(b, a, "r", 1)
	qg, _ := graph.NewQueryGraph(g, a, []graph.NodeID{b})
	if _, err := PropagationExact(qg); err == nil {
		t.Fatal("PropagationExact must reject cyclic graphs")
	}
}

func TestPropagationNodeProbabilityApplied(t *testing.T) {
	// s -1-> x(0.5) -1-> t(0.8): r(x)=0.5, r(t)=0.5*0.8=0.4.
	g := graph.New(3, 2)
	s := g.AddNode("Q", "s", 1)
	x := g.AddNode("X", "x", 0.5)
	tt := g.AddNode("A", "t", 0.8)
	g.AddEdge(s, x, "r", 1)
	g.AddEdge(x, tt, "r", 1)
	qg, _ := graph.NewQueryGraph(g, s, []graph.NodeID{tt})
	res, err := (&Propagation{}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Scores[0]-0.4) > 1e-12 {
		t.Fatalf("got %v, want 0.4", res.Scores[0])
	}
}
