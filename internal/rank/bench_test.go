package rank

import (
	"context"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

// benchGraph builds a layered DAG shaped like a scenario query graph:
// source -> 1 protein -> width hits -> width genes -> answers functions.
func benchGraph(width, answers int) *graph.QueryGraph {
	rng := prob.NewRNG(99)
	g := graph.New(2+2*width+answers, 4*width)
	s := g.AddNode("Q", "s", 1)
	p := g.AddNode("P", "p", 1)
	g.AddEdge(s, p, "m", 1)
	var funcs []graph.NodeID
	for i := 0; i < answers; i++ {
		funcs = append(funcs, g.AddNode("F", nodeLabel(9, i), 0.2+0.8*rng.Float64()))
	}
	for i := 0; i < width; i++ {
		h := g.AddNode("H", nodeLabel(0, i), 1)
		ge := g.AddNode("G", nodeLabel(1, i), 0.3+0.7*rng.Float64())
		g.AddEdge(p, h, "b1", 0.1+0.9*rng.Float64())
		g.AddEdge(h, ge, "b2", 1)
		// Each gene annotates 1-3 functions.
		n := 1 + rng.Intn(3)
		for j := 0; j < n; j++ {
			g.AddEdge(ge, funcs[rng.Intn(len(funcs))], "a", 1)
		}
	}
	qg, err := graph.NewQueryGraph(g, s, funcs)
	if err != nil {
		panic(err)
	}
	return qg.Prune()
}

func BenchmarkTraversalMC1000(b *testing.B) {
	qg := benchGraph(150, 50)
	mc := &MonteCarlo{Trials: 1000, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.RankCtx(context.Background(), qg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveMC1000(b *testing.B) {
	qg := benchGraph(150, 50)
	mc := &MonteCarlo{Trials: 1000, Seed: 1, Naive: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.RankCtx(context.Background(), qg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveMC measures the early-stopping estimator on the same
// workload as BenchmarkTraversalMC1000; the stopping rule decides the
// trial count (compare ns/op against the fixed-budget benchmarks).
func BenchmarkAdaptiveMC(b *testing.B) {
	qg := benchGraph(150, 50)
	am := &AdaptiveMonteCarlo{Seed: 1, TopK: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := am.RankCtx(context.Background(), qg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankAllSharedPlan runs all five semantics over one shared
// compiled plan, the engine's steady-state shape.
func BenchmarkRankAllSharedPlan(b *testing.B) {
	qg := benchGraph(150, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RankAllCtx(context.Background(), qg, AllOptions{Trials: 1000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(MethodNames) {
			b.Fatal("incomplete result")
		}
	}
}

func BenchmarkReduce(b *testing.B) {
	qg := benchGraph(150, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red, _ := Reduce(qg)
		if red.NumNodes() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkExactFactoring(b *testing.B) {
	qg := benchGraph(60, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ExactReliability(qg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPropagationLarge(b *testing.B) {
	qg := benchGraph(300, 100)
	p := &Propagation{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RankCtx(context.Background(), qg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiffusionLarge(b *testing.B) {
	qg := benchGraph(300, 100)
	d := &Diffusion{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.RankCtx(context.Background(), qg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiffusionIterativeInner(b *testing.B) {
	qg := benchGraph(300, 100)
	d := &Diffusion{Iterative: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.RankCtx(context.Background(), qg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathCountLarge(b *testing.B) {
	qg := benchGraph(300, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (PathCount{}).RankCtx(context.Background(), qg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWheatstoneExact(b *testing.B) {
	qg := fig4b()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ExactReliability(qg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopKRacer measures the successive-elimination racer on the
// BenchmarkTraversalMC1000/BenchmarkAdaptiveMC workload: same graph,
// same certified top 5, but eliminated candidates stop being simulated
// (compare ns/op against BenchmarkAdaptiveMC).
func BenchmarkTopKRacer(b *testing.B) {
	qg := benchGraph(150, 50)
	racer := &TopKRacer{K: 5, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := racer.RankCtx(context.Background(), qg); err != nil {
			b.Fatal(err)
		}
	}
}
