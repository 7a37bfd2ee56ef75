package rank

import (
	"context"
	"errors"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

func TestInEdgeCounts(t *testing.T) {
	g := graph.New(4, 4)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("X", "a", 1)
	t1 := g.AddNode("A", "t1", 1)
	t2 := g.AddNode("A", "t2", 1)
	g.AddEdge(s, a, "r", 0.5)
	g.AddEdge(s, t1, "r", 0.5)
	g.AddEdge(a, t1, "r", 0.5)
	g.AddEdge(a, t2, "r", 0.5)
	qg, _ := graph.NewQueryGraph(g, s, []graph.NodeID{t1, t2})
	res, err := InEdge{}.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] != 2 || res.Scores[1] != 1 {
		t.Fatalf("InEdge = %v, want [2 1]", res.Scores)
	}
}

func TestInEdgeIgnoresProbabilities(t *testing.T) {
	g := graph.New(3, 2)
	s := g.AddNode("Q", "s", 1)
	tt := g.AddNode("A", "t", 0.01)
	x := g.AddNode("X", "x", 1)
	g.AddEdge(s, x, "r", 0.001)
	g.AddEdge(x, tt, "r", 0.001)
	qg, _ := graph.NewQueryGraph(g, s, []graph.NodeID{tt})
	res, _ := InEdge{}.RankCtx(context.Background(), qg)
	if res.Scores[0] != 1 {
		t.Fatalf("InEdge must ignore probabilities: %v", res.Scores)
	}
}

func TestPathCountDiamond(t *testing.T) {
	// s -> {a,b} -> m -> t : 2 paths to m, 2 to t.
	g := graph.New(5, 6)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("X", "a", 1)
	b := g.AddNode("X", "b", 1)
	m := g.AddNode("X", "m", 1)
	tt := g.AddNode("A", "t", 1)
	g.AddEdge(s, a, "r", 1)
	g.AddEdge(s, b, "r", 1)
	g.AddEdge(a, m, "r", 1)
	g.AddEdge(b, m, "r", 1)
	g.AddEdge(m, tt, "r", 1)
	qg, _ := graph.NewQueryGraph(g, s, []graph.NodeID{tt})
	res, err := PathCount{}.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] != 2 {
		t.Fatalf("PathCount = %v, want 2", res.Scores[0])
	}
}

func TestPathCountParallelEdgesAreDistinctPaths(t *testing.T) {
	g := graph.New(2, 3)
	s := g.AddNode("Q", "s", 1)
	tt := g.AddNode("A", "t", 1)
	g.AddEdge(s, tt, "r", 1)
	g.AddEdge(s, tt, "r", 1)
	g.AddEdge(s, tt, "r", 1)
	qg, _ := graph.NewQueryGraph(g, s, []graph.NodeID{tt})
	res, _ := PathCount{}.RankCtx(context.Background(), qg)
	if res.Scores[0] != 3 {
		t.Fatalf("PathCount = %v, want 3", res.Scores[0])
	}
}

func TestPathCountRejectsCycles(t *testing.T) {
	// Section 3.5: "Cycles lead to infinite PathCounts."
	g := graph.New(3, 3)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("X", "a", 1)
	tt := g.AddNode("A", "t", 1)
	g.AddEdge(s, a, "r", 1)
	g.AddEdge(a, a, "r", 1)
	g.AddEdge(a, tt, "r", 1)
	qg, _ := graph.NewQueryGraph(g, s, []graph.NodeID{tt})
	_, err := PathCount{}.RankCtx(context.Background(), qg)
	if err == nil {
		t.Fatal("PathCount must reject cyclic graphs")
	}
	if !errors.Is(err, graph.ErrCyclic) {
		t.Fatalf("error should wrap graph.ErrCyclic: %v", err)
	}
}

func TestPathCountUnreachableAnswerIsZero(t *testing.T) {
	g := graph.New(2, 0)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("A", "a", 1)
	qg, _ := graph.NewQueryGraph(g, s, []graph.NodeID{a})
	res, err := PathCount{}.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] != 0 {
		t.Fatalf("unreachable PathCount = %v, want 0", res.Scores[0])
	}
}

func TestCountPathsGrowth(t *testing.T) {
	// k stacked diamonds give 2^k paths.
	g := graph.New(20, 40)
	prev := g.AddNode("Q", "s", 1)
	const k = 6
	for i := 0; i < k; i++ {
		a := g.AddNode("X", nodeLabel(i, 0), 1)
		b := g.AddNode("X", nodeLabel(i, 1), 1)
		join := g.AddNode("X", nodeLabel(i, 2), 1)
		g.AddEdge(prev, a, "r", 1)
		g.AddEdge(prev, b, "r", 1)
		g.AddEdge(a, join, "r", 1)
		g.AddEdge(b, join, "r", 1)
		prev = join
	}
	qg, _ := graph.NewQueryGraph(g, g.NodesOfKind("Q")[0], []graph.NodeID{prev})
	res, err := PathCount{}.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] != 64 {
		t.Fatalf("stacked diamonds: %v paths, want 64", res.Scores[0])
	}
}

func TestDeterministicTiesAreCommon(t *testing.T) {
	// Section 3.4(iii): InEdge produces many ties. On a fan graph all
	// targets tie at 1.
	g := graph.New(10, 10)
	s := g.AddNode("Q", "s", 1)
	var answers []graph.NodeID
	rng := prob.NewRNG(1)
	for i := 0; i < 8; i++ {
		a := g.AddNode("A", nodeLabel(0, i), 1)
		g.AddEdge(s, a, "r", rng.Float64())
		answers = append(answers, a)
	}
	qg, _ := graph.NewQueryGraph(g, s, answers)
	res, _ := InEdge{}.RankCtx(context.Background(), qg)
	for _, sc := range res.Scores {
		if sc != 1 {
			t.Fatalf("expected all ties at 1, got %v", res.Scores)
		}
	}
}
