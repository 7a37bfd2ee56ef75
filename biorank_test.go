package biorank

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"biorank/internal/metrics"
	"biorank/internal/rank"
)

func TestGraphFacadeEndToEnd(t *testing.T) {
	g := NewGraph()
	p := g.AddRecord("Protein", "P1", 1)
	f1 := g.AddRecord("Function", "F1", 1)
	f2 := g.AddRecord("Function", "F2", 1)
	mid := g.AddRecord("Gene", "G1", 0.8)
	g.AddLink(p, mid, 0.9)
	g.AddLink(mid, f1, 1)
	g.AddLink(p, f2, 0.1)

	ans, err := g.Explore("P1", "Protein", "Function")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Fatalf("want 2 answers, got %d", ans.Len())
	}
	scored, _, err := ans.RankCtx(context.Background(), Reliability, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if scored[0].Label != "F1" {
		t.Fatalf("F1 (0.72) should outrank F2 (0.1): %+v", scored)
	}
	if math.Abs(scored[0].Score-0.9*0.8) > 1e-9 {
		t.Fatalf("F1 score %v, want 0.72", scored[0].Score)
	}
	if scored[0].RankLo != 1 || scored[0].RankHi != 1 {
		t.Fatalf("unique top rank expected: %+v", scored[0])
	}
}

func TestAllMethodsRunOnFacadeGraph(t *testing.T) {
	g := NewGraph()
	p := g.AddRecord("P", "x", 1)
	f := g.AddRecord("F", "f", 1)
	g.AddLink(p, f, 0.5)
	ans, err := g.Explore("x", "P", "F")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		scored, _, err := ans.RankCtx(context.Background(), m, Options{Trials: 500, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(scored) != 1 {
			t.Fatalf("%s: wrong answer count", m)
		}
	}
	if _, _, err := ans.RankCtx(context.Background(), Method("bogus"), Options{}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestDemoSystemQuery(t *testing.T) {
	sys, err := NewDemoSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	prots := sys.Proteins()
	if len(prots) != 20 || prots[0] != "ABCC8" {
		t.Fatalf("proteins = %v", prots)
	}
	ans, err := sys.Query("ABCC8")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 97 {
		t.Fatalf("ABCC8 should have 97 candidate functions, got %d", ans.Len())
	}
	golden := sys.GoldenFunctions("ABCC8")
	if len(golden) != 13 {
		t.Fatalf("ABCC8 should have 13 golden functions, got %d", len(golden))
	}
	emerging := sys.EmergingFunctions("ABCC8")
	if len(emerging) != 3 {
		t.Fatalf("ABCC8 should have 3 emerging functions, got %d", len(emerging))
	}
	if len(sys.EmergingFunctions("GALT")) != 0 {
		t.Fatal("GALT has no emerging functions")
	}

	scored, _, err := ans.RankCtx(context.Background(), Reliability, Options{Trials: 2000, Seed: 7, Reduce: true})
	if err != nil {
		t.Fatal(err)
	}
	goldenSet := map[string]bool{}
	for _, f := range golden {
		goldenSet[f] = true
	}
	ap := AveragePrecision(scored, func(l string) bool { return goldenSet[l] })
	if ap < RandomAP(13, 97)+0.2 {
		t.Fatalf("reliability AP %v barely beats random", ap)
	}
	// Answers must come back sorted.
	for i := 1; i < len(scored); i++ {
		if scored[i].Score > scored[i-1].Score {
			t.Fatal("answers not sorted by score")
		}
	}
}

func TestHypotheticalSystem(t *testing.T) {
	sys, err := NewHypotheticalSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Proteins()) != 11 {
		t.Fatalf("want 11 hypothetical proteins, got %d", len(sys.Proteins()))
	}
	ans, err := sys.Query("DP0843")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 47 {
		t.Fatalf("DP0843 should have 47 candidates, got %d", ans.Len())
	}
	nodes, edges := ans.GraphSize()
	if nodes == 0 || edges == 0 {
		t.Fatal("empty query graph")
	}
}

func TestQueryUnknownProtein(t *testing.T) {
	sys, err := NewDemoSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query("NOPE"); err == nil {
		t.Fatal("unknown protein accepted")
	}
}

func TestRandomAPFacade(t *testing.T) {
	if RandomAP(5, 5) != 1 {
		t.Fatal("RandomAP(5,5) should be 1")
	}
	if RandomAP(1, 100) > 0.1 {
		t.Fatal("RandomAP(1,100) should be small")
	}
}

func TestAnswersRankAllMatchesPerMethod(t *testing.T) {
	sys, err := NewDemoSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Query("ABCC8")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Trials: 500, Seed: 4, Reduce: true}
	all, err := ans.RankAll(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Methods()) {
		t.Fatalf("want %d methods, got %d", len(Methods()), len(all))
	}
	subset, err := ans.RankAll(o, InEdge, PathCount)
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 {
		t.Fatalf("subset should rank 2 methods, got %d", len(subset))
	}
	for i := range subset[InEdge] {
		if subset[InEdge][i] != all[InEdge][i] {
			t.Fatalf("subset scores diverge at answer %d", i)
		}
	}
	for _, m := range Methods() {
		single, _, err := ans.RankCtx(context.Background(), m, o)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		got := all[m]
		if len(got) != len(single) {
			t.Fatalf("%s: answer count %d vs %d", m, len(got), len(single))
		}
		for i := range single {
			if got[i] != single[i] {
				t.Errorf("%s answer %d: RankAll %+v != Rank %+v", m, i, got[i], single[i])
			}
		}
	}
}

func TestSystemQueryBatch(t *testing.T) {
	sys, err := NewDemoSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	o := Options{Trials: 300, Seed: 2, Reduce: true}
	reqs := []BatchRequest{
		{Protein: "ABCC8", Options: o},
		{Protein: "CFTR", Methods: []Method{Propagation, InEdge}, Options: o},
		{Protein: "NO-SUCH-PROTEIN", Options: o},
	}
	results := sys.QueryBatchCtx(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("want %d results, got %d", len(reqs), len(results))
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if len(results[0].Rankings) != len(Methods()) {
		t.Fatalf("nil Methods should rank all five, got %d", len(results[0].Rankings))
	}
	if results[1].Err != nil {
		t.Fatal(results[1].Err)
	}
	if len(results[1].Rankings) != 2 {
		t.Fatalf("want 2 methods for CFTR, got %d", len(results[1].Rankings))
	}
	if results[2].Err == nil {
		t.Fatal("unknown protein should fail its request only")
	}

	// Batched scores must equal the sequential single-query path.
	ans, err := sys.Query("ABCC8")
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ans.RankCtx(context.Background(), Reliability, o)
	if err != nil {
		t.Fatal(err)
	}
	got := results[0].Rankings[Reliability]
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("answer %d: batched %+v != sequential %+v", i, got[i], want[i])
		}
	}

	// A repeated batch is served from the cache.
	again := sys.QueryBatchCtx(context.Background(), reqs[:2])
	for _, r := range again {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		for m, hit := range r.Cached {
			if !hit {
				t.Errorf("%s/%s: repeat batch should hit the cache", r.Protein, m)
			}
		}
	}
	if s := sys.CacheStats(); s.Hits == 0 {
		t.Errorf("cache stats show no hits: %+v", s)
	}
}

func TestParallelReliabilityOptionDeterministic(t *testing.T) {
	sys, err := NewDemoSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Query("ABCC8")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Trials: 4000, Seed: 9, Workers: 4}
	a, _, err := ans.RankCtx(context.Background(), Reliability, o)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ans.RankCtx(context.Background(), Reliability, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sharded reliability not deterministic at answer %d", i)
		}
	}
}

// TestWorldsOptionFacade covers the bit-parallel estimator through the
// public facade: Rank, the batch engine, and the top-k race all accept
// Options.Worlds, scores stay statistically consistent with the scalar
// estimator, and worlds runs are deterministic per seed.
func TestWorldsOptionFacade(t *testing.T) {
	sys, err := NewDemoSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	protein := sys.Proteins()[0]
	ans, err := sys.Query(protein)
	if err != nil {
		t.Fatal(err)
	}

	o := Options{Trials: 20000, Seed: 9, Worlds: true}
	a, _, err := ans.RankCtx(context.Background(), Reliability, o)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ans.RankCtx(context.Background(), Reliability, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worlds reliability not deterministic at answer %d", i)
		}
	}
	scalar, _, err := ans.RankCtx(context.Background(), Reliability, Options{Trials: 20000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scalar {
		if d := scalar[i].Score - a[i].Score; d > 0.05 || d < -0.05 {
			t.Errorf("answer %d (%s): scalar %v vs worlds %v", i, scalar[i].Label, scalar[i].Score, a[i].Score)
		}
	}

	// Batch path: worlds requests succeed and rank sanely.
	res := sys.QueryBatchCtx(context.Background(), []BatchRequest{{
		Protein: protein,
		Methods: []Method{Reliability},
		Options: Options{Trials: 2000, Seed: 1, Worlds: true},
	}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	for _, sa := range res[0].Rankings[Reliability] {
		if sa.Score < 0 || sa.Score > 1 {
			t.Fatalf("batch worlds score %v outside [0,1]", sa.Score)
		}
	}

	// Top-k race with Worlds: trials come in 64-world words.
	topk, err := ans.TopK(3, Options{Seed: 7, Worlds: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(topk.Answers) != 3 {
		t.Fatalf("want 3 answers, got %d", len(topk.Answers))
	}
	for i, ta := range topk.Answers {
		if ta.Trials <= 0 || ta.Trials%64 != 0 {
			t.Errorf("answer %d: worlds race trials %d not a positive multiple of 64", i, ta.Trials)
		}
	}
}

// TestAnswersTopK covers the facade's top-k race: the certified top k
// arrives in descending order with coherent confidence bounds, the
// telemetry reports the race, and Options.TopK plumbs through the batch
// engine path.
func TestAnswersTopK(t *testing.T) {
	sys, err := NewDemoSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	protein := sys.Proteins()[0]
	ans, err := sys.Query(protein)
	if err != nil {
		t.Fatal(err)
	}

	const k = 5
	res, err := ans.TopK(k, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != k {
		t.Fatalf("want %d answers, got %d", k, len(res.Answers))
	}
	for i, a := range res.Answers {
		if a.Lo > a.Score || a.Score > a.Hi {
			t.Errorf("answer %d: score %v outside [%v, %v]", i, a.Score, a.Lo, a.Hi)
		}
		if i > 0 && a.Score > res.Answers[i-1].Score {
			t.Errorf("answers not in descending order at %d", i)
		}
		if a.Trials <= 0 {
			t.Errorf("answer %d: nonpositive trial count %d", i, a.Trials)
		}
	}
	if res.Candidates <= k {
		t.Fatalf("demo answer set only %d candidates", res.Candidates)
	}
	if res.CandidateTrials >= res.Trials*int64(res.Candidates) {
		t.Errorf("no pruning savings: candidate-trials %d vs full %d",
			res.CandidateTrials, res.Trials*int64(res.Candidates))
	}

	// The certified top-k set must agree with an independent full
	// ranking (fixed budget, sub-eps ties interchangeable).
	full, _, err := ans.RankCtx(context.Background(), Reliability, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	scoreOf := map[string]float64{}
	for _, a := range full {
		scoreOf[a.Kind+"/"+a.Label] = a.Score
	}
	for i, a := range res.Answers {
		fixed := full[i]
		if fixed.Kind == a.Kind && fixed.Label == a.Label {
			continue
		}
		if gap := scoreOf[fixed.Kind+"/"+fixed.Label] - scoreOf[a.Kind+"/"+a.Label]; gap > 0.02 || gap < -0.02 {
			t.Errorf("rank %d: racer %s/%s vs fixed %s/%s (gap %v)",
				i+1, a.Kind, a.Label, fixed.Kind, fixed.Label, gap)
		}
	}

	// k < 1 is rejected.
	if _, err := ans.TopK(0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}

	// The engine path accepts Options.TopK.
	out := sys.QueryBatchCtx(context.Background(), []BatchRequest{{
		Protein: protein,
		Methods: []Method{Reliability},
		Options: Options{Seed: 7, TopK: k},
	}})
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	if len(out[0].Rankings[Reliability]) == 0 {
		t.Fatal("engine path returned no reliability ranking")
	}
}

// TestScoredAnswersRankIntervals pins the facade's answer lists: on
// several demo query graphs, every answer of all five methods (and of
// the planner, which adds bounds) sits in descending score order with
// ties in answer order, and carries the rank interval
// metrics.RankInterval gives it over all of the method's scores.
// PathCount and InEdge tie heavily.
func TestScoredAnswersRankIntervals(t *testing.T) {
	s, err := NewDemoSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for _, p := range s.Proteins()[:4] {
		ans, err := s.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []Options{{Trials: 1000, Seed: 1}, {Trials: 1000, Seed: 1, Planner: true}} {
			specs, err := o.Specs(nil)
			if err != nil {
				t.Fatal(err)
			}
			results, err := rank.RankSpecs(context.Background(), ans.qg, specs, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			for i, spec := range specs {
				got := scoredAnswers(ans.qg, results[i])
				// The reference: answers in input order with their
				// intervals, stably sorted by descending score.
				res := results[i]
				want := make([]ScoredAnswer, len(res.Scores))
				for j, id := range ans.qg.Answers {
					n := ans.qg.Node(id)
					lo, hi := metrics.RankInterval(res.Scores, j)
					ties += hi - lo
					want[j] = ScoredAnswer{Kind: n.Kind, Label: n.Label, Score: res.Scores[j], RankLo: lo, RankHi: hi}
					if res.Lo != nil {
						want[j].Lo, want[j].Hi, want[j].HasBounds = res.Lo[j], res.Hi[j], true
					}
					if res.Exact != nil {
						want[j].Exact = res.Exact[j]
					}
				}
				sort.SliceStable(want, func(a, b int) bool { return want[a].Score > want[b].Score })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s (planner %v): answers differ from the reference order and intervals", p, spec.Method, o.Planner)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no tied scores: the intervals are untested")
	}
}
