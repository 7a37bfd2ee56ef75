package rank

import (
	"context"
	"math"
	"testing"

	"biorank/internal/prob"
)

func TestParallelMCMatchesExact(t *testing.T) {
	rng := prob.NewRNG(61)
	for trial := 0; trial < 8; trial++ {
		qg := randomDAG(rng)
		exact := bruteReliability(qg)
		mc := &MonteCarlo{Trials: 60000, Seed: uint64(trial), Workers: 4}
		res, err := mc.RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exact {
			if math.Abs(res.Scores[i]-exact[i]) > 0.02 {
				t.Errorf("trial %d answer %d: parallel MC %v vs exact %v",
					trial, i, res.Scores[i], exact[i])
			}
		}
	}
}

func TestParallelMCDeterministic(t *testing.T) {
	qg := fig4b()
	mc := &MonteCarlo{Trials: 20000, Seed: 11, Workers: 4}
	a, err := mc.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mc.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Scores[0] != b.Scores[0] {
		t.Fatal("parallel MC not deterministic for fixed (seed, workers)")
	}
}

func TestParallelMCMoreWorkersThanTrials(t *testing.T) {
	qg := fig4a()
	mc := &MonteCarlo{Trials: 3, Seed: 1, Workers: 16}
	res, err := mc.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] < 0 || res.Scores[0] > 1 {
		t.Fatalf("score %v out of range", res.Scores[0])
	}
}

func TestParallelMCWithReduction(t *testing.T) {
	rng := prob.NewRNG(67)
	qg := randomDAG(rng)
	exact := bruteReliability(qg)
	mc := &MonteCarlo{Trials: 60000, Seed: 5, Workers: 3, Reduce: true}
	res, err := mc.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(res.Scores[i]-exact[i]) > 0.02 {
			t.Errorf("answer %d: %v vs %v", i, res.Scores[i], exact[i])
		}
	}
}

func BenchmarkParallelMC4Workers(b *testing.B) {
	qg := benchGraph(150, 50)
	mc := &MonteCarlo{Trials: 10000, Seed: 1, Workers: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.RankCtx(context.Background(), qg); err != nil {
			b.Fatal(err)
		}
	}
}
