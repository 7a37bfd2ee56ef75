package engine

import (
	"context"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/kernel"
)

// planTestGraph builds a tiny query graph; fresh objects per call, the
// way a resolver would.
func planTestGraph() *graph.QueryGraph {
	g := graph.New(3, 2)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("A", "a", 0.5)
	b := g.AddNode("A", "b", 0.8)
	g.AddEdge(s, a, "r", 0.9)
	g.AddEdge(s, b, "r", 0.4)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{a, b})
	if err != nil {
		panic(err)
	}
	return qg
}

func TestPlanCacheHitsAcrossFreshGraphObjects(t *testing.T) {
	e := New(ResolverFunc(func(context.Context, string) (*graph.QueryGraph, error) {
		return planTestGraph(), nil
	}), Config{CacheSize: -1}) // result cache off so every request ranks
	defer e.Close()

	req := Request{Source: "x", Methods: []string{"reliability"}, Options: Options{Trials: 200, Seed: 1}}
	for i := 0; i < 3; i++ {
		if resp := e.RankCtx(context.Background(), req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	ps := e.PlanStats()
	// First request compiles (miss); the two repeats hit even though the
	// resolver returned brand-new graph objects — the key is content
	// (fingerprint, version), not identity.
	if ps.Misses != 1 || ps.Hits != 2 || ps.Entries != 1 {
		t.Fatalf("plan stats %+v, want 1 miss / 2 hits / 1 entry", ps)
	}
}

func TestPlanCacheSkipsPlanFreeMethods(t *testing.T) {
	e := New(ResolverFunc(func(context.Context, string) (*graph.QueryGraph, error) {
		return planTestGraph(), nil
	}), Config{CacheSize: -1})
	defer e.Close()
	if resp := e.RankCtx(context.Background(), Request{Source: "x", Methods: []string{"inedge", "pathcount"}}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if ps := e.PlanStats(); ps.Hits+ps.Misses != 0 {
		t.Fatalf("plan cache consulted for plan-free methods: %+v", ps)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	e := New(ResolverFunc(func(context.Context, string) (*graph.QueryGraph, error) {
		return planTestGraph(), nil
	}), Config{CacheSize: -1, PlanCacheSize: -1})
	defer e.Close()
	if resp := e.RankCtx(context.Background(), Request{Source: "x", Methods: []string{"reliability"}, Options: Options{Trials: 100}}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if ps := e.PlanStats(); ps != (PlanCacheStats{}) {
		t.Fatalf("disabled plan cache reported %+v", ps)
	}
}

func TestAdaptiveOptionDistinctCacheKey(t *testing.T) {
	e := New(ResolverFunc(func(context.Context, string) (*graph.QueryGraph, error) {
		return planTestGraph(), nil
	}), Config{})
	defer e.Close()
	fixed := Request{Source: "x", Methods: []string{"reliability"}, Options: Options{Trials: 20000, Seed: 3}}
	adaptive := fixed
	adaptive.Options.Adaptive = true
	r1 := e.RankCtx(context.Background(), fixed)
	r2 := e.RankCtx(context.Background(), adaptive)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	// The adaptive request must not be served from the fixed request's
	// result-cache entry.
	if r2.Cached["reliability"] {
		t.Fatal("adaptive result served from fixed-mode cache entry")
	}
	// Both modes rank the same graph, so scores agree loosely.
	fs := r1.Results["reliability"].Scores
	as := r2.Results["reliability"].Scores
	for i := range fs {
		if d := fs[i] - as[i]; d > 0.05 || d < -0.05 {
			t.Fatalf("answer %d: fixed %v vs adaptive %v", i, fs[i], as[i])
		}
	}
}

func TestPlanCacheEviction(t *testing.T) {
	c := newPlanCache(2)
	p := kernel.Compile(planTestGraph())
	c.put(1, 1, p, false)
	c.put(2, 2, p, false)
	c.put(3, 3, p, false)
	if got := c.get(1); got != nil {
		t.Fatal("oldest entry should have been evicted")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats %+v", s)
	}
}

// TestWorldsOptionSharesCacheEntry pins that the deprecated Worlds flag
// is not part of the result cache key: every sampled request runs on the
// block kernel, so a request that sets it is served the entry a request
// without it created, with the same scores.
func TestWorldsOptionSharesCacheEntry(t *testing.T) {
	e := New(ResolverFunc(func(context.Context, string) (*graph.QueryGraph, error) {
		return planTestGraph(), nil
	}), Config{})
	defer e.Close()
	plain := Request{Source: "x", Methods: []string{"reliability"}, Options: Options{Trials: 20000, Seed: 3}}
	worlds := plain
	worlds.Options.Worlds = true
	r1 := e.RankCtx(context.Background(), plain)
	r2 := e.RankCtx(context.Background(), worlds)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r1.Cached["reliability"] || !r2.Cached["reliability"] {
		t.Fatalf("cached flags %v then %v, want a miss then a hit", r1.Cached["reliability"], r2.Cached["reliability"])
	}
	ps, ws := r1.Results["reliability"].Scores, r2.Results["reliability"].Scores
	for i := range ps {
		if ps[i] != ws[i] {
			t.Fatalf("answer %d: %v without Worlds, %v with it", i, ps[i], ws[i])
		}
	}
	if s := e.CacheStats(); s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Fatalf("cache stats %+v, want 1 miss, 1 hit, 1 entry", s)
	}
}

// TestReduceOptionSharesCacheEntry pins that the deprecated Reduce flag
// is not part of the result cache key: every sampled request simulates
// the full query graph, so a request that sets it is served the entry a
// request without it created, with the same scores.
func TestReduceOptionSharesCacheEntry(t *testing.T) {
	e := New(ResolverFunc(func(context.Context, string) (*graph.QueryGraph, error) {
		return planTestGraph(), nil
	}), Config{})
	defer e.Close()
	plain := Request{Source: "x", Methods: []string{"reliability"}, Options: Options{Trials: 20000, Seed: 3}}
	reduce := plain
	reduce.Options.Reduce = true
	r1 := e.RankCtx(context.Background(), plain)
	r2 := e.RankCtx(context.Background(), reduce)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r1.Cached["reliability"] || !r2.Cached["reliability"] {
		t.Fatalf("cached flags %v then %v, want a miss then a hit", r1.Cached["reliability"], r2.Cached["reliability"])
	}
	ps, rs := r1.Results["reliability"].Scores, r2.Results["reliability"].Scores
	for i := range ps {
		if ps[i] != rs[i] {
			t.Fatalf("answer %d: %v without Reduce, %v with it", i, ps[i], rs[i])
		}
	}
	if s := e.CacheStats(); s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Fatalf("cache stats %+v, want 1 miss, 1 hit, 1 entry", s)
	}
}

// TestPlanCacheServesReduceRequests pins that a fixed-budget request
// setting the deprecated Reduce runs on the plan cache like any other
// sampled request: two such requests for one protein with different
// seeds (so both miss the result cache) compile one plan and reuse it.
func TestPlanCacheServesReduceRequests(t *testing.T) {
	resolver, proteins := testResolver(t)
	e := New(resolver, Config{})
	defer e.Close()
	for seed := uint64(1); seed <= 2; seed++ {
		req := Request{Source: proteins[0], Methods: []string{"reliability"}, Options: Options{Trials: 1000, Seed: seed, Reduce: true}}
		if resp := e.RankCtx(context.Background(), req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if ps := e.PlanStats(); ps.Misses != 1 || ps.Hits != 1 {
		t.Fatalf("plan stats %+v, want 1 miss, 1 hit", ps)
	}
}

// TestTopKOptionDistinctCacheKey pins that K participates in the result
// cache key: a top-k race only certifies the top K scores, so serving a
// K=2 race from a K=5 (or fixed-budget) entry would hand out bounds
// that were never certified.
func TestTopKOptionDistinctCacheKey(t *testing.T) {
	e := New(ResolverFunc(func(context.Context, string) (*graph.QueryGraph, error) {
		return planTestGraph(), nil
	}), Config{})
	defer e.Close()
	fixed := Request{Source: "x", Methods: []string{"reliability"}, Options: Options{Trials: 20000, Seed: 3}}
	topk := fixed
	topk.Options.TopK = 2
	topk2 := fixed
	topk2.Options.TopK = 3
	r1 := e.RankCtx(context.Background(), fixed)
	r2 := e.RankCtx(context.Background(), topk)
	r3 := e.RankCtx(context.Background(), topk2)
	for _, r := range []Response{r1, r2, r3} {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if r2.Cached["reliability"] || r3.Cached["reliability"] {
		t.Fatal("top-k result served from a differently-keyed cache entry")
	}
	// A repeat of the same K must hit.
	if r := e.RankCtx(context.Background(), topk); !r.Cached["reliability"] {
		t.Fatal("identical top-k request missed the cache")
	}
}
