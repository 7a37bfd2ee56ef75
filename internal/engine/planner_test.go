package engine

import (
	"context"
	"math"
	"testing"

	"biorank/internal/graph"
)

// TestPlannerOptionDistinctCacheKey pins that the planner flag
// participates in the result cache key: planner results carry exact
// scores and confidence bounds that a plain Monte Carlo entry does not,
// so serving one for the other would silently change semantics.
func TestPlannerOptionDistinctCacheKey(t *testing.T) {
	e := New(ResolverFunc(func(context.Context, string) (*graph.QueryGraph, error) {
		return planTestGraph(), nil
	}), Config{})
	defer e.Close()
	mc := Request{Source: "x", Methods: []string{"reliability"}, Options: Options{Trials: 20000, Seed: 3}}
	planner := mc
	planner.Options.Planner = true
	r1 := e.RankCtx(context.Background(), mc)
	r2 := e.RankCtx(context.Background(), planner)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r2.Cached["reliability"] {
		t.Fatal("planner result served from Monte Carlo cache entry")
	}
	// Both estimate the same reliabilities, so scores agree loosely.
	ms := r1.Results["reliability"].Scores
	ps := r2.Results["reliability"].Scores
	for i := range ms {
		if d := ms[i] - ps[i]; d > 0.05 || d < -0.05 {
			t.Fatalf("answer %d: monte carlo %v vs planner %v", i, ms[i], ps[i])
		}
	}
	// A repeat of the planner request must hit its own entry — and the
	// hit must preserve the uncertainty payload.
	r3 := e.RankCtx(context.Background(), planner)
	if !r3.Cached["reliability"] {
		t.Fatal("identical planner request missed the cache")
	}
	res := r3.Results["reliability"]
	if res.Lo == nil || res.Hi == nil || res.Exact == nil {
		t.Fatalf("cached planner hit lost its Lo/Hi/Exact payload: %+v", res)
	}
	// planTestGraph is serially reducible, so the planner solves both
	// answers exactly: 0.5·0.9 = 0.45 and 0.8·0.4 = 0.32.
	want := []float64{0.45, 0.32}
	for i := range want {
		if !res.Exact[i] {
			t.Fatalf("answer %d not exact on a reducible graph", i)
		}
		if math.Abs(res.Scores[i]-want[i]) > 1e-12 {
			t.Fatalf("answer %d: planner score %v, want %v", i, res.Scores[i], want[i])
		}
		if res.Lo[i] != res.Scores[i] || res.Hi[i] != res.Scores[i] {
			t.Fatalf("answer %d: exact interval [%v,%v] not zero width", i, res.Lo[i], res.Hi[i])
		}
	}
}
