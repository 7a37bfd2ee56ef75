package rank

import (
	"context"
	"math/rand"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/kernel"
)

// nearTieGraph builds two independent near-tied answers so a racer with
// a tiny Eps cannot resolve them and must run to its trial cap.
func nearTieGraph() *graph.QueryGraph {
	g := graph.New(3, 2)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("A", "a", 1)
	b := g.AddNode("A", "b", 1)
	g.AddEdge(s, a, "r", 0.5)
	g.AddEdge(s, b, "r", 0.502)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{a, b})
	if err != nil {
		panic(err)
	}
	return qg
}

// TestWorldsRacerHonorsMaxTrials pins the MaxTrials overshoot fix at a
// cap that is not a multiple of kernel.WordSize: the bit-parallel
// racer's word rounding used to un-clamp the final batch, pushing
// trials and TrialsPerCandidate past the cap.
func TestWorldsRacerHonorsMaxTrials(t *testing.T) {
	qg := nearTieGraph()
	const cap = 1000 // not a word multiple: 1000 = 15·64 + 40
	if cap%kernel.WordSize == 0 {
		t.Fatal("test needs a non-word-multiple cap")
	}
	r := &TopKRacer{K: 2, Eps: 1e-9, Delta: 1e-6, Batch: 300, MaxTrials: cap, Seed: 5, Worlds: true}
	_, rs, err := r.RankWithStatsCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	wantCap := int64(cap - cap%kernel.WordSize) // effective cap rounds down
	for i, n := range rs.TrialsPerCandidate {
		if n > int64(cap) {
			t.Fatalf("candidate %d ran %d trials, above the %d cap", i, n, cap)
		}
	}
	if got := rs.TrialsPerCandidate[0]; got != wantCap {
		t.Fatalf("near-tied candidate stopped at %d trials, want the full rounded cap %d", got, wantCap)
	}
	// The scalar racer honors the cap exactly.
	r = &TopKRacer{K: 2, Eps: 1e-9, Delta: 1e-6, Batch: 300, MaxTrials: cap, Seed: 5}
	_, rs, err = r.RankWithStatsCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.TrialsPerCandidate[0]; got != int64(cap) {
		t.Fatalf("scalar racer stopped at %d trials, want exactly %d", got, cap)
	}
}

// TestWorldsRacerTinyCapStillSimulates: a cap below one word must still
// run one word rather than zero trials.
func TestWorldsRacerTinyCapStillSimulates(t *testing.T) {
	qg := nearTieGraph()
	r := &TopKRacer{K: 2, Eps: 1e-9, Delta: 1e-6, MaxTrials: 10, Seed: 5, Worlds: true}
	_, rs, err := r.RankWithStatsCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.TrialsPerCandidate[0]; got != int64(kernel.WordSize) {
		t.Fatalf("tiny cap ran %d trials, want one word (%d)", got, kernel.WordSize)
	}
}

// TestSortIdxByScoreDescDeterministic compares the sort.Slice argsort
// against a reference insertion sort on tie-heavy inputs: same order,
// ties broken by index, identical across repeated runs.
func TestSortIdxByScoreDescDeterministic(t *testing.T) {
	ref := func(order []int, scores []float64) {
		for i := range order {
			order[i] = i
		}
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && scores[order[j]] > scores[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(5)) / 4 // heavy ties
		}
		got := make([]int, n)
		want := make([]int, n)
		again := make([]int, n)
		sortIdxByScoreDesc(got, scores)
		ref(want, scores)
		sortIdxByScoreDesc(again, scores)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order[%d] = %d, reference %d (scores %v)", trial, i, got[i], want[i], scores)
			}
			if got[i] != again[i] {
				t.Fatalf("trial %d: argsort not deterministic at %d", trial, i)
			}
		}
		for i := 1; i < n; i++ {
			a, b := got[i-1], got[i]
			if scores[a] < scores[b] || (scores[a] == scores[b] && a > b) {
				t.Fatalf("trial %d: order violates (score desc, index asc) at %d", trial, i)
			}
		}
	}
}

func BenchmarkArgsortDesc1000(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	scores := make([]float64, 1000)
	for i := range scores {
		scores[i] = float64(rng.Intn(50)) / 49 // tie-heavy, like a settled race
	}
	order := make([]int, len(scores))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortIdxByScoreDesc(order, scores)
	}
}
