package rank

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

// innerResidual evaluates |v - Σ max((r_i - v) q_i, 0)|, the defect of a
// candidate inner fixpoint.
func innerResidual(parents []parentContrib, v float64) float64 {
	s := 0.0
	for _, p := range parents {
		if d := (p.r - v) * p.q; d > 0 {
			s += d
		}
	}
	return math.Abs(v - s)
}

func TestInnerAnalyticSolvesFixpoint(t *testing.T) {
	rng := prob.NewRNG(41)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(6)
		parents := make([]parentContrib, n)
		for i := range parents {
			parents[i] = parentContrib{r: rng.Float64(), q: rng.Float64()}
		}
		v := solveInnerAnalytic(parents)
		if res := innerResidual(parents, v); res > 1e-9 {
			t.Fatalf("trial %d: residual %v at v=%v parents=%v", trial, res, v, parents)
		}
	}
}

func TestInnerIterativeAgreesWithAnalytic(t *testing.T) {
	rng := prob.NewRNG(43)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		parents := make([]parentContrib, n)
		for i := range parents {
			parents[i] = parentContrib{r: rng.Float64(), q: rng.Float64()}
		}
		a := solveInnerAnalytic(append([]parentContrib(nil), parents...))
		b := solveInnerIterative(parents, 200)
		if math.Abs(a-b) > 1e-6 {
			t.Fatalf("trial %d: analytic %v vs iterative %v for %v", trial, a, b, parents)
		}
	}
}

func TestInnerSingleParentClosedForm(t *testing.T) {
	// One parent: v = q·r/(1+q).
	f := func(rRaw, qRaw float64) bool {
		r := math.Abs(math.Mod(rRaw, 1))
		q := math.Abs(math.Mod(qRaw, 1))
		v := solveInnerAnalytic([]parentContrib{{r: r, q: q}})
		want := q * r / (1 + q)
		return math.Abs(v-want) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiffusionIterativeMatchesAnalytic(t *testing.T) {
	rng := prob.NewRNG(47)
	for trial := 0; trial < 20; trial++ {
		qg := randomDAG(rng)
		a, err := (&Diffusion{}).RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := (&Diffusion{Iterative: true, InnerIterations: 300}).RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Scores {
			if math.Abs(a.Scores[i]-b.Scores[i]) > 1e-5 {
				t.Fatalf("trial %d answer %d: analytic %v vs iterative %v",
					trial, i, a.Scores[i], b.Scores[i])
			}
		}
	}
}

func TestDiffusionChain(t *testing.T) {
	// s -q-> t: r̄(t) = q/(1+q); r(t) = p(t)·q/(1+q).
	g := graph.New(2, 1)
	s := g.AddNode("Q", "s", 1)
	tt := g.AddNode("A", "t", 0.8)
	g.AddEdge(s, tt, "r", 0.5)
	qg, _ := graph.NewQueryGraph(g, s, []graph.NodeID{tt})
	res, err := (&Diffusion{}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.8 * 0.5 / 1.5
	if math.Abs(res.Scores[0]-want) > 1e-9 {
		t.Fatalf("got %v want %v", res.Scores[0], want)
	}
}

func TestDiffusionPrefersFewerStrongerPaths(t *testing.T) {
	// Section 3.3: diffusion "tends to favor nodes that have fewer
	// stronger paths over nodes with more but weaker paths".
	g := graph.New(8, 8)
	s := g.AddNode("Q", "s", 1)
	// strong: one path with q=0.9 each hop.
	x := g.AddNode("X", "x", 1)
	strong := g.AddNode("A", "strong", 1)
	g.AddEdge(s, x, "r", 0.9)
	g.AddEdge(x, strong, "r", 0.9)
	// weak: four paths with q=0.3 each hop.
	weak := g.AddNode("A", "weak", 1)
	for i := 0; i < 4; i++ {
		m := g.AddNode("X", nodeLabel(1, i), 1)
		g.AddEdge(s, m, "r", 0.3)
		g.AddEdge(m, weak, "r", 0.3)
	}
	qg, _ := graph.NewQueryGraph(g, s, []graph.NodeID{strong, weak})
	diff, err := (&Diffusion{}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Scores[0] <= diff.Scores[1] {
		t.Fatalf("diffusion should favor the strong single path: %v vs %v",
			diff.Scores[0], diff.Scores[1])
	}
}

func TestDiffusionShorterPathWins(t *testing.T) {
	// Path-length sensitivity: the same edge strengths over a longer
	// path score lower.
	g := graph.New(6, 5)
	s := g.AddNode("Q", "s", 1)
	short := g.AddNode("A", "short", 1)
	g.AddEdge(s, short, "r", 0.8)
	prev := s
	for i := 0; i < 2; i++ {
		m := g.AddNode("X", nodeLabel(2, i), 1)
		g.AddEdge(prev, m, "r", 0.8)
		prev = m
	}
	long := g.AddNode("A", "long", 1)
	g.AddEdge(prev, long, "r", 0.8)
	qg, _ := graph.NewQueryGraph(g, s, []graph.NodeID{short, long})
	res, err := (&Diffusion{}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] <= res.Scores[1] {
		t.Fatalf("shorter path should score higher: %v vs %v", res.Scores[0], res.Scores[1])
	}
}

func TestDiffusionScoresBounded(t *testing.T) {
	rng := prob.NewRNG(53)
	for trial := 0; trial < 20; trial++ {
		qg := randomDAG(rng)
		res, err := (&Diffusion{}).RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range res.Scores {
			if s < 0 || s > 1 {
				t.Fatalf("trial %d: diffusion score %v for answer %d out of [0,1]", trial, s, i)
			}
		}
	}
}
