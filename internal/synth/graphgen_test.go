package synth

import (
	"context"
	"math"
	"testing"

	"biorank/internal/rank"
)

func TestRandomQueryGraphStructure(t *testing.T) {
	spec := GraphSpec{Hits: 40, Answers: 20, AnnotationsPerGene: 3, ChainLen: 2}
	qg := RandomQueryGraph(7, spec)
	if len(qg.Answers) == 0 || len(qg.Answers) > 20 {
		t.Fatalf("answer count %d out of range", len(qg.Answers))
	}
	if !qg.IsDAG() {
		t.Fatal("generated graph must be a DAG")
	}
	// Workflow shape: longest path = match + blast1 + chain + blast2 +
	// annotate = 4 + ChainLen.
	l, err := qg.LongestPathFrom(qg.Source)
	if err != nil {
		t.Fatal(err)
	}
	if l != 4+spec.ChainLen {
		t.Fatalf("longest path %d, want %d", l, 4+spec.ChainLen)
	}
}

func TestRandomQueryGraphDeterministic(t *testing.T) {
	spec := DefaultGraphSpec()
	a := RandomQueryGraph(3, spec)
	b := RandomQueryGraph(3, spec)
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("generation not deterministic")
	}
	c := RandomQueryGraph(4, spec)
	if a.NumNodes() == c.NumNodes() && a.NumEdges() == c.NumEdges() {
		t.Log("different seeds gave same sizes (possible)")
	}
}

func TestRandomQueryGraphPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RandomQueryGraph(1, GraphSpec{Hits: 0, Answers: 5})
}

func TestRandomQueryGraphChainsCollapse(t *testing.T) {
	// The serial chains are exactly what the Section 3.1.2 rules
	// collapse: reduction must shrink long-chain graphs dramatically.
	long := RandomQueryGraph(9, GraphSpec{Hits: 60, Answers: 20, AnnotationsPerGene: 2, ChainLen: 4})
	_, stats := rank.Reduce(long)
	if stats.ElemReduction() < 0.5 {
		t.Fatalf("long-chain graph only reduced by %.0f%%", 100*stats.ElemReduction())
	}
}

func TestRandomQueryGraphRankable(t *testing.T) {
	qg := RandomQueryGraph(11, GraphSpec{Hits: 30, Answers: 10, AnnotationsPerGene: 2, ChainLen: 1})
	mc, err := (&rank.MonteCarlo{Trials: 20000, Seed: 1}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := rank.ExactReliability(qg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(mc.Scores[i]-exact[i]) > 0.02 {
			t.Fatalf("answer %d: MC %v vs exact %v", i, mc.Scores[i], exact[i])
		}
	}
}
