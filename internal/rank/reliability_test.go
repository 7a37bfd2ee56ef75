package rank

import (
	"context"
	"math"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

func TestTrialBound(t *testing.T) {
	n, err := TrialBound(0.02, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// The paper states that for ε=0.02 and 95% confidence, "10,000
	// trials should be enough"; the exact bound is 7,895.
	if n < 7000 || n > 10000 {
		t.Fatalf("TrialBound(0.02, 0.05) = %d, want ~7895", n)
	}
	// Monotonicity: tighter eps or delta requires more trials.
	n2, _ := TrialBound(0.01, 0.05)
	if n2 <= n {
		t.Error("smaller eps must require more trials")
	}
	n3, _ := TrialBound(0.02, 0.01)
	if n3 <= n {
		t.Error("smaller delta must require more trials")
	}
}

func TestTrialBoundRejectsBadInputs(t *testing.T) {
	for _, c := range []struct{ eps, delta float64 }{
		{0, 0.05}, {1, 0.05}, {-0.1, 0.05}, {0.02, 0}, {0.02, 1}, {0.02, 2},
	} {
		if _, err := TrialBound(c.eps, c.delta); err == nil {
			t.Errorf("TrialBound(%v,%v) should fail", c.eps, c.delta)
		}
	}
}

func TestMonteCarloDeterministicGivenSeed(t *testing.T) {
	qg := fig4b()
	mc := &MonteCarlo{Trials: 5000, Seed: 99}
	r1, err := mc.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mc.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Scores[0] != r2.Scores[0] {
		t.Fatal("same seed must give identical estimates")
	}
	mc2 := &MonteCarlo{Trials: 5000, Seed: 100}
	r3, _ := mc2.RankCtx(context.Background(), qg)
	if r1.Scores[0] == r3.Scores[0] {
		t.Log("different seeds gave identical estimate (possible but unlikely)")
	}
}

func TestNaiveAndTraversalAgree(t *testing.T) {
	// Both estimators target the same quantity; with enough trials they
	// must agree with the exact value and hence each other.
	rng := prob.NewRNG(7)
	for trial := 0; trial < 10; trial++ {
		qg := randomDAG(rng)
		exact := bruteReliability(qg)
		trav, err := (&MonteCarlo{Trials: 60000, Seed: uint64(trial)}).RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := (&MonteCarlo{Trials: 60000, Seed: uint64(trial), Naive: true}).RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exact {
			if math.Abs(trav.Scores[i]-exact[i]) > 0.02 {
				t.Errorf("graph %d answer %d: traversal %v vs exact %v", trial, i, trav.Scores[i], exact[i])
			}
			if math.Abs(naive.Scores[i]-exact[i]) > 0.02 {
				t.Errorf("graph %d answer %d: naive %v vs exact %v", trial, i, naive.Scores[i], exact[i])
			}
		}
	}
}

func TestMonteCarloWithReduction(t *testing.T) {
	rng := prob.NewRNG(21)
	for trial := 0; trial < 10; trial++ {
		qg := randomDAG(rng)
		exact := bruteReliability(qg)
		red, err := (&MonteCarlo{Trials: 60000, Seed: 5, Reduce: true}).RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		if len(red.Scores) != len(qg.Answers) {
			t.Fatalf("reduction changed answer cardinality: %d vs %d", len(red.Scores), len(qg.Answers))
		}
		for i := range exact {
			if math.Abs(red.Scores[i]-exact[i]) > 0.02 {
				t.Errorf("graph %d answer %d: reduced-MC %v vs exact %v", trial, i, red.Scores[i], exact[i])
			}
		}
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	rng := prob.NewRNG(31)
	for trial := 0; trial < 50; trial++ {
		qg := randomDAG(rng)
		want := bruteReliability(qg)
		got, _, err := ExactReliability(qg, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("graph %d answer %d: factoring %v vs brute force %v\n%s",
					trial, i, got[i], want[i], qg.DOT("g"))
			}
		}
	}
}

func TestExactOnCyclicGraph(t *testing.T) {
	// Reliability is well defined on cyclic graphs; factoring must
	// handle them. s -> a <-> b -> t.
	g := graph.New(4, 4)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("X", "a", 0.9)
	b := g.AddNode("X", "b", 0.9)
	tt := g.AddNode("A", "t", 1)
	g.AddEdge(s, a, "r", 0.5)
	g.AddEdge(a, b, "r", 0.5)
	g.AddEdge(b, a, "r", 0.5)
	g.AddEdge(b, tt, "r", 0.5)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{tt})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteReliability(qg)
	got, _, err := ExactReliability(qg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-want[0]) > 1e-9 {
		t.Fatalf("cyclic: factoring %v vs brute force %v", got[0], want[0])
	}
}

func TestExactSourceAsAnswer(t *testing.T) {
	g := graph.New(1, 0)
	s := g.AddNode("Q", "s", 0.7)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{s})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ExactReliability(qg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0.7 {
		t.Fatalf("source-as-answer reliability = %v, want p(s)=0.7", got[0])
	}
}

func TestExactUnreachableAnswer(t *testing.T) {
	g := graph.New(2, 0)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("A", "a", 1)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{a})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ExactReliability(qg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatalf("unreachable answer reliability = %v, want 0", got[0])
	}
}

func TestExactNodeFailuresMatter(t *testing.T) {
	// s -> x -> t with p(x)=0.5 and certain edges: reliability must be
	// 0.5, not 1. This pins the node-failure semantics that Algorithm
	// 3.1's printed indentation obscures (see DESIGN.md).
	g := graph.New(3, 2)
	s := g.AddNode("Q", "s", 1)
	x := g.AddNode("X", "x", 0.5)
	tt := g.AddNode("A", "t", 1)
	g.AddEdge(s, x, "r", 1)
	g.AddEdge(x, tt, "r", 1)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{tt})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ExactReliability(qg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-0.5) > 1e-12 {
		t.Fatalf("reliability through failing node = %v, want 0.5", got[0])
	}
	mc, err := (&MonteCarlo{Trials: 100000, Seed: 3}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc.Scores[0]-0.5) > 0.01 {
		t.Fatalf("MC reliability through failing node = %v, want 0.5", mc.Scores[0])
	}
}

func TestClosedFormFlags(t *testing.T) {
	scores, reducible, err := ClosedForm(fig4a())
	if err != nil {
		t.Fatal(err)
	}
	if !reducible[0] {
		t.Error("fig4a should be closed-form reducible")
	}
	if math.Abs(scores[0]-0.5) > 1e-12 {
		t.Errorf("fig4a closed form = %v", scores[0])
	}
	_, reducible, err = ClosedForm(fig4b())
	if err != nil {
		t.Fatal(err)
	}
	if reducible[0] {
		t.Error("Wheatstone bridge must not be closed-form reducible")
	}
}

func TestConditioningBudgetExhaustion(t *testing.T) {
	// A graph of stacked bridges forces many conditionings; with budget
	// 1 we must get ErrBudgetExhausted rather than a wrong answer.
	qg := fig4b()
	_, _, err := ExactReliability(qg, 1)
	if err == nil {
		t.Fatal("expected budget exhaustion")
	}
}

func TestRankRejectsNilGraph(t *testing.T) {
	for _, r := range []Ranker{&MonteCarlo{}, Exact{}, &Propagation{}, &Diffusion{}, InEdge{}, PathCount{}} {
		if _, err := r.RankCtx(context.Background(), nil); err == nil {
			t.Errorf("%s accepted nil query graph", r.Name())
		}
	}
}

func TestMethodsRegistry(t *testing.T) {
	ms := Methods(100, 1)
	if len(ms) != 5 {
		t.Fatalf("want 5 methods, got %d", len(ms))
	}
	want := []string{"reliability", "propagation", "diffusion", "inedge", "pathcount"}
	for i, m := range ms {
		if m.Name() != want[i] {
			t.Errorf("method %d = %s, want %s", i, m.Name(), want[i])
		}
	}
}
