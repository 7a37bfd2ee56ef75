package kernel

import (
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

// benchPlanGraph mirrors rank's benchGraph: a layered DAG shaped like a
// scenario query graph (source -> protein -> 150 hits -> genes -> 50
// candidate functions), compiled once.
func benchPlanGraph() *graph.QueryGraph {
	rng := prob.NewRNG(99)
	width, answers := 150, 50
	g := graph.New(2+2*width+answers, 4*width)
	s := g.AddNode("Q", "s", 1)
	p := g.AddNode("P", "p", 1)
	g.AddEdge(s, p, "m", 1)
	var funcs []graph.NodeID
	for i := 0; i < answers; i++ {
		funcs = append(funcs, g.AddNode("F", "f", 0.2+0.8*rng.Float64()))
	}
	for i := 0; i < width; i++ {
		h := g.AddNode("H", "h", 1)
		ge := g.AddNode("G", "g", 0.3+0.7*rng.Float64())
		g.AddEdge(p, h, "b1", 0.1+0.9*rng.Float64())
		g.AddEdge(h, ge, "b2", 1)
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

// BenchmarkCompiledTraversal1000 is the zero-alloc steady state: plan
// compiled once, scores and RNG reused, 1000 trials per op.
func BenchmarkCompiledTraversal1000(b *testing.B) {
	plan := Compile(benchPlanGraph())
	scores := make([]float64, plan.NumAnswers())
	rng := prob.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(1)
		plan.Reliability(scores, 1000, rng, nil)
	}
}

// BenchmarkCompiledTraversal10000 is the scalar kernel at the paper's
// full Theorem 3.1 budget — the baseline the bit-parallel estimator is
// measured against (same plan, same trial count).
func BenchmarkCompiledTraversal10000(b *testing.B) {
	plan := Compile(benchPlanGraph())
	scores := make([]float64, plan.NumAnswers())
	rng := prob.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(1)
		plan.Reliability(scores, 10000, rng, nil)
	}
}

// BenchmarkBitParallel1000 is the bit-parallel estimator on the
// BenchmarkCompiledTraversal1000 workload (1000 trials → 16 words).
func BenchmarkBitParallel1000(b *testing.B) {
	plan := Compile(benchPlanGraph())
	scores := make([]float64, plan.NumAnswers())
	rng := prob.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(1)
		plan.reliabilityWorlds(scores, 1000, rng, nil)
	}
}

// BenchmarkBitParallel10000 simulates the full 10,000-trial budget 64
// worlds at a time (157 words); compare BenchmarkCompiledTraversal10000.
func BenchmarkBitParallel10000(b *testing.B) {
	plan := Compile(benchPlanGraph())
	scores := make([]float64, plan.NumAnswers())
	rng := prob.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(1)
		plan.reliabilityWorlds(scores, 10000, rng, nil)
	}
}

// BenchmarkWorldsBlock1000 is the block kernel (256 worlds per
// [4]uint64 block) on the BenchmarkBitParallel1000 workload.
func BenchmarkWorldsBlock1000(b *testing.B) {
	benchWorldsBlock(b, 1000)
}

// BenchmarkWorldsBlock10000 simulates the full 10,000-trial budget 256
// worlds at a time (39 blocks + 1 remainder word); compare
// BenchmarkBitParallel10000 — the ≥2x target of the block refactor.
func BenchmarkWorldsBlock10000(b *testing.B) {
	benchWorldsBlock(b, 10000)
}

// benchWorldsBlock runs one block session per op over the benchmark
// plan, trials rounded up to whole words, and scores the answers.
func benchWorldsBlock(b *testing.B, trials int) {
	plan := Compile(benchPlanGraph())
	scores := make([]float64, plan.NumAnswers())
	counts := make([]int64, plan.NumNodes())
	words := WorldWords(trials)
	rng := prob.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(1)
		clear(counts)
		plan.NewWorldsBlockSession(rng).Counts(counts, nil, words, nil)
		plan.ScoresFromCounts(counts, words*WordSize, scores)
	}
}

// sparseReachGraph is a low-reach synth graph: a wide fan of nodes
// behind one improbable edge, so most word-trials touch almost nothing.
// It pins the touched-list harvest of the worlds kernels — a full
// per-node sweep per word-trial costs O(n·words) here while the
// traversal itself is O(touched).
func sparseReachGraph(n int) *graph.QueryGraph {
	g := graph.New(n+2, n+1)
	s := g.AddNode("Q", "s", 1)
	hub := g.AddNode("H", "hub", 1)
	g.AddEdge(s, hub, "r", 0.01) // reach beyond the source is rare
	answers := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		answers[i] = g.AddNode("A", "a", 1)
		g.AddEdge(hub, answers[i], "r", 1)
	}
	qg, err := graph.NewQueryGraph(g, s, answers)
	if err != nil {
		panic(err)
	}
	return qg
}

// BenchmarkBitParallelSparseHarvest runs the single-word worlds kernel
// on the sparse-reach graph: with the touched-list harvest the cost per
// word-trial is dominated by the source coin, not an O(n) sweep.
func BenchmarkBitParallelSparseHarvest(b *testing.B) {
	plan := Compile(sparseReachGraph(20000))
	scores := make([]float64, plan.NumAnswers())
	rng := prob.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(1)
		plan.reliabilityWorlds(scores, 6400, rng, nil)
	}
}

// BenchmarkCompiledNaive1000 is the compiled all-coins baseline.
func BenchmarkCompiledNaive1000(b *testing.B) {
	plan := Compile(benchPlanGraph())
	scores := make([]float64, plan.NumAnswers())
	rng := prob.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(1)
		plan.Naive(scores, 1000, rng, nil)
	}
}

// BenchmarkCompiledPropagation exercises the compiled CSC loop.
func BenchmarkCompiledPropagation(b *testing.B) {
	plan := Compile(benchPlanGraph())
	scores := make([]float64, plan.NumAnswers())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Propagation(scores, plan.LongestFromSource(), 1e-12, true)
	}
}

// BenchmarkCompiledDiffusion exercises the compiled analytic diffusion.
func BenchmarkCompiledDiffusion(b *testing.B) {
	plan := Compile(benchPlanGraph())
	scores := make([]float64, plan.NumAnswers())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Diffusion(scores, plan.LongestFromSource(), 1e-12, true)
	}
}

// BenchmarkCompile measures plan compilation itself, the one-time cost a
// cached plan amortizes away.
func BenchmarkCompile(b *testing.B) {
	qg := benchPlanGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Compile(qg).NumNodes() == 0 {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkPlanPatch measures incremental plan maintenance after a
// probability-only delta: rebuild the coin thresholds, share the
// topology. Its margin over BenchmarkCompile (which pays a topological
// sort and the full allocation set per call) is the payoff of patching
// on the ingest path.
func BenchmarkPlanPatch(b *testing.B) {
	qg := benchPlanGraph()
	base := Compile(qg)
	// A realistic small delta: one node and one edge reweighted.
	qg.SetNodeP(qg.Answers[0], 0.123)
	qg.SetEdgeQ(0, 0.456)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		np, ok := base.Patch(qg)
		if !ok || np.NumNodes() == 0 {
			b.Fatal("patch failed")
		}
	}
}
