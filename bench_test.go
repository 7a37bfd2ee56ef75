package biorank

// This file is the benchmark harness mandated by DESIGN.md: one
// testing.B benchmark per table and figure of the paper's evaluation
// section, plus per-method ranking benchmarks on the scenario-1 query
// graphs (the measurements behind Figure 8). Run with:
//
//	go test -bench=. -benchmem
//
// World construction is done once and excluded from timings.

import (
	"context"
	"sync"
	"testing"

	"biorank/internal/experiments"
	"biorank/internal/rank"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchErr   error
)

func benchSetup(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		opts := experiments.QuickOptions()
		opts.Trials = 1000
		opts.Repeats = 3
		benchSuite, benchErr = experiments.NewSuite(opts)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

// BenchmarkTable1 regenerates Table 1 (the 20 golden proteins and their
// answer-set sizes).
func BenchmarkTable1(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := s.Table1(); len(rows) != 20 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig4 regenerates Figure 4 (five semantics on the two micro
// graphs).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Scenario1/2/3 regenerate the three panels of Figure 5.
func BenchmarkFig5Scenario1(b *testing.B) { benchFig5(b, 1) }

// BenchmarkFig5Scenario2 benchmarks the less-known-function panel.
func BenchmarkFig5Scenario2(b *testing.B) { benchFig5(b, 2) }

// BenchmarkFig5Scenario3 benchmarks the hypothetical-protein panel.
func BenchmarkFig5Scenario3(b *testing.B) { benchFig5(b, 3) }

func benchFig5(b *testing.B, scenario int) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure5Scenario(scenario); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (ranks of the 7 emerging
// functions under all five methods).
func BenchmarkTable2(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (ranks for the 11 hypothetical
// proteins).
func BenchmarkTable3(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Panel regenerates one sensitivity panel of Figure 6
// (scenario 1, reliability, m repetitions at four noise levels).
func BenchmarkFig6Panel(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure6Panel(1, "reliability"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates the Monte Carlo convergence curve of Figure
// 7 (reduced trial ladder).
func BenchmarkFig7(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure7([]int{10, 100, 1000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates the efficiency study of Figure 8 (both
// panels plus the headline speedups).
func BenchmarkFig8(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure8(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRank measures one ranking method across the 20 scenario-1 query
// graphs — the per-method timings of Figure 8b.
func benchRank(b *testing.B, r rank.Ranker) {
	s := benchSetup(b)
	graphs := s.Graphs12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qg := graphs[i%len(graphs)]
		if _, err := r.RankCtx(context.Background(), qg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankReliabilityMC10000 is Figure 8a's M1 configuration.
func BenchmarkRankReliabilityMC10000(b *testing.B) {
	benchRank(b, &rank.MonteCarlo{Trials: 10000, Seed: 1})
}

// BenchmarkRankReliabilityMC1000 is Figure 8a's M2 configuration.
func BenchmarkRankReliabilityMC1000(b *testing.B) {
	benchRank(b, &rank.MonteCarlo{Trials: 1000, Seed: 1})
}

// BenchmarkRankReliabilityReduceMC1000 is Figure 8a's R&M2, the paper's
// fastest configuration and its benchmark method.
func BenchmarkRankReliabilityReduceMC1000(b *testing.B) {
	benchRank(b, &rank.MonteCarlo{Trials: 1000, Seed: 1, Reduce: true})
}

// BenchmarkRankReliabilityNaiveMC1000 is the naive estimator the paper
// reports a 3.4x speedup against.
func BenchmarkRankReliabilityNaiveMC1000(b *testing.B) {
	benchRank(b, &rank.MonteCarlo{Trials: 1000, Seed: 1, Naive: true})
}

// BenchmarkRankReliabilityExact is Figure 8a's C configuration (closed
// solution with factoring fallback).
func BenchmarkRankReliabilityExact(b *testing.B) {
	benchRank(b, rank.Exact{})
}

// BenchmarkRankPropagation times Algorithm 3.2.
func BenchmarkRankPropagation(b *testing.B) {
	benchRank(b, &rank.Propagation{})
}

// BenchmarkRankDiffusion times Algorithm 3.3.
func BenchmarkRankDiffusion(b *testing.B) {
	benchRank(b, &rank.Diffusion{})
}

// BenchmarkRankInEdge times the cardinality measure.
func BenchmarkRankInEdge(b *testing.B) {
	benchRank(b, rank.InEdge{})
}

// BenchmarkRankPathCount times the path-counting measure.
func BenchmarkRankPathCount(b *testing.B) {
	benchRank(b, rank.PathCount{})
}

// BenchmarkGraphReduction times the Section 3.1.2 reduction rules on the
// scenario-1 graphs (the paper reports a 78% element reduction).
func BenchmarkGraphReduction(b *testing.B) {
	s := benchSetup(b)
	graphs := s.Graphs12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qg := graphs[i%len(graphs)]
		red, _ := rank.Reduce(qg)
		if red.NumNodes() == 0 {
			b.Fatal("reduction emptied the graph")
		}
	}
}

// BenchmarkExploratoryQuery times the full integration + query pipeline
// (mediator materialization, reachability, pruning) for one protein.
func BenchmarkExploratoryQuery(b *testing.B) {
	s := benchSetup(b)
	med, err := s.World12.Mediator()
	if err != nil {
		b.Fatal(err)
	}
	cases := s.World12.Cases
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qg, err := med.Explore(cases[i%len(cases)].Protein)
		if err != nil {
			b.Fatal(err)
		}
		if len(qg.Answers) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkLiveCarve times live mode's resolve: each op carves the demo
// world's 20 keywords' query graphs out of the live union graph.
func BenchmarkLiveCarve(b *testing.B) {
	s := liveSystem(b, 1)
	live := s.live.Load()
	prots := s.Proteins()
	for b.Loop() {
		for _, p := range prots {
			if _, err := live.Carve(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEndToEndQuery measures the whole user journey through the
// public facade: query plus reliability ranking.
func BenchmarkEndToEndQuery(b *testing.B) {
	sys, err := NewDemoSystem(1)
	if err != nil {
		b.Fatal(err)
	}
	prots := sys.Proteins()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := sys.Query(prots[i%len(prots)])
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ans.RankCtx(context.Background(), Reliability, Options{Trials: 1000, Seed: 1, Reduce: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldConstruction measures building the full scenario-1/2
// world (sources, sequences, profiles, aligner index).
func BenchmarkWorldConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewDemoSystem(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(sys.Proteins()) != 20 {
			b.Fatal("bad world")
		}
	}
}
