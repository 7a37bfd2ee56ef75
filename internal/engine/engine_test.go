package engine

import (
	"context"
	"sync"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/rank"
	"biorank/internal/synth"
)

// testResolver builds the scenario-1/2 world's mediator as a Resolver.
func testResolver(t testing.TB) (Resolver, []string) {
	t.Helper()
	w := synth.NewScenario12(1)
	med, err := w.Mediator()
	if err != nil {
		t.Fatal(err)
	}
	proteins := make([]string, 0, len(w.Cases))
	for _, c := range w.Cases {
		proteins = append(proteins, c.Protein)
	}
	return ResolverFunc(func(_ context.Context, s string) (*graph.QueryGraph, error) { return med.Explore(s) }), proteins
}

// diamond builds a small hand-made query graph for cache tests.
func diamond() *graph.QueryGraph {
	g := graph.New(4, 4)
	s := g.AddNode("Query", "s", 1)
	a := g.AddNode("Mid", "a", 0.9)
	b := g.AddNode("Mid", "b", 0.8)
	tgt := g.AddNode("AmiGO", "t", 0.7)
	g.AddEdge(s, a, "", 0.9)
	g.AddEdge(s, b, "", 0.6)
	g.AddEdge(a, tgt, "", 0.8)
	g.AddEdge(b, tgt, "", 0.7)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{tgt})
	if err != nil {
		panic(err)
	}
	return qg
}

// TestEngineBatchMatchesSequential drives all five semantics for every
// protein through the batched engine and checks score equality with the
// sequential per-method path over the same resolver.
func TestEngineBatchMatchesSequential(t *testing.T) {
	resolver, proteins := testResolver(t)
	e := New(resolver, Config{Workers: 4})
	defer e.Close()

	opts := Options{Trials: 500, Seed: 7, Reduce: true}
	reqs := make([]Request, len(proteins))
	for i, p := range proteins {
		reqs[i] = Request{Source: p, Options: opts}
	}
	resps := e.QueryBatchCtx(context.Background(), reqs)
	if len(resps) != len(proteins) {
		t.Fatalf("got %d responses for %d requests", len(resps), len(proteins))
	}
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("%s: %v", proteins[i], resp.Err)
		}
		if resp.Source != proteins[i] {
			t.Fatalf("response %d out of order: %s != %s", i, resp.Source, proteins[i])
		}
		qg, err := resolver.ResolveCtx(context.Background(), proteins[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range rank.MethodNames {
			var want rank.Result
			switch m {
			case "reliability":
				// The engine serves reliability on the block kernel over
				// the full graph: the deprecated Reduce is ignored.
				want, err = (&rank.MonteCarlo{Trials: 500, Seed: 7, Worlds: true}).RankCtx(context.Background(), qg)
			case "propagation":
				want, err = (&rank.Propagation{}).RankCtx(context.Background(), qg)
			case "diffusion":
				want, err = (&rank.Diffusion{}).RankCtx(context.Background(), qg)
			case "inedge":
				want, err = rank.InEdge{}.RankCtx(context.Background(), qg)
			case "pathcount":
				want, err = rank.PathCount{}.RankCtx(context.Background(), qg)
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", proteins[i], m, err)
			}
			got := resp.Results[m]
			if len(got.Scores) != len(want.Scores) {
				t.Fatalf("%s/%s: %d scores, want %d", proteins[i], m, len(got.Scores), len(want.Scores))
			}
			for j := range want.Scores {
				if got.Scores[j] != want.Scores[j] {
					t.Errorf("%s/%s answer %d: batched %v != sequential %v",
						proteins[i], m, j, got.Scores[j], want.Scores[j])
				}
			}
		}
	}
}

// TestEngineConcurrentHammer fires batches from many goroutines at one
// shared engine. Run under -race this doubles as the engine's data-race
// check; the assertions verify every response is complete and
// consistent with every other response for the same protein.
func TestEngineConcurrentHammer(t *testing.T) {
	resolver, proteins := testResolver(t)
	e := New(resolver, Config{Workers: 4, CacheSize: 64})
	defer e.Close()

	const hammers = 8
	opts := Options{Trials: 200, Seed: 3, Reduce: true, Workers: 2}
	baseline := map[string]map[string][]float64{}
	for _, p := range proteins[:4] {
		resp := e.RankCtx(context.Background(), Request{Source: p, Options: opts})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		baseline[p] = map[string][]float64{}
		for m, res := range resp.Results {
			baseline[p][m] = res.Scores
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, hammers)
	for h := 0; h < hammers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				reqs := make([]Request, 0, 4)
				for _, p := range proteins[:4] {
					reqs = append(reqs, Request{Source: p, Options: opts})
				}
				for _, resp := range e.QueryBatchCtx(context.Background(), reqs) {
					if resp.Err != nil {
						errs <- resp.Err
						return
					}
					for m, res := range resp.Results {
						want := baseline[resp.Source][m]
						for j := range want {
							if res.Scores[j] != want[j] {
								t.Errorf("hammer %d: %s/%s answer %d drifted: %v != %v",
									h, resp.Source, m, j, res.Scores[j], want[j])
								return
							}
						}
					}
				}
			}
		}(h)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Hits == 0 {
		t.Error("hammering identical queries should produce cache hits")
	}
}

// TestEngineParallelMCDeterministic checks that the engine's sharded
// Monte Carlo reproduces the serial scores' determinism contract: a
// fixed (seed, workers) pair gives identical scores on every run, and
// the engine matches the rank package's block-kernel estimator run
// directly.
func TestEngineParallelMCDeterministic(t *testing.T) {
	e := New(nil, Config{Workers: 2, CacheSize: -1}) // cache off: every run recomputes
	defer e.Close()
	qg := diamond()
	opts := Options{Trials: 20000, Seed: 5, Workers: 4}
	req := Request{Source: "diamond", Graph: qg, Methods: []string{"reliability"}, Options: opts}

	first := e.RankCtx(context.Background(), req)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	second := e.RankCtx(context.Background(), req)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	direct, err := (&rank.MonteCarlo{Trials: 20000, Seed: 5, Workers: 4, Worlds: true}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	for j := range direct.Scores {
		if first.Results["reliability"].Scores[j] != second.Results["reliability"].Scores[j] {
			t.Fatal("engine parallel MC not deterministic across runs")
		}
		if first.Results["reliability"].Scores[j] != direct.Scores[j] {
			t.Fatalf("engine %v != direct sharded MC %v", first.Results["reliability"].Scores[j], direct.Scores[j])
		}
	}
}

// TestEngineCacheLifecycle covers miss, hit, option sensitivity, and
// invalidation when the underlying graph mutates (version bump).
func TestEngineCacheLifecycle(t *testing.T) {
	e := New(nil, Config{Workers: 1})
	defer e.Close()
	qg := diamond()
	opts := Options{Trials: 1000, Seed: 2}
	req := Request{Source: "diamond", Graph: qg, Options: opts}

	// First evaluation: all five methods miss.
	r1 := e.RankCtx(context.Background(), req)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	for m, hit := range r1.Cached {
		if hit {
			t.Errorf("first evaluation of %s should miss", m)
		}
	}

	// Second evaluation: all five hit, scores identical.
	r2 := e.RankCtx(context.Background(), req)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	for m, hit := range r2.Cached {
		if !hit {
			t.Errorf("second evaluation of %s should hit", m)
		}
		for j := range r1.Results[m].Scores {
			if r1.Results[m].Scores[j] != r2.Results[m].Scores[j] {
				t.Errorf("%s: cached scores differ", m)
			}
		}
	}
	if s := e.CacheStats(); s.Hits != int64(len(rank.MethodNames)) || s.Misses != int64(len(rank.MethodNames)) {
		t.Errorf("stats %+v, want %d hits and %d misses", s, len(rank.MethodNames), len(rank.MethodNames))
	}

	// A different seed is a different key for reliability, the only
	// method that reads it; the deterministic methods keep hitting.
	r3 := e.RankCtx(context.Background(), Request{Source: "diamond", Graph: qg, Options: Options{Trials: 1000, Seed: 9}})
	if r3.Err != nil {
		t.Fatal(r3.Err)
	}
	for m, hit := range r3.Cached {
		if hit != (m != "reliability") {
			t.Errorf("different seed: %s cached = %v", m, hit)
		}
	}

	// Mutating the graph bumps its version and invalidates every entry.
	before := qg.Version()
	qg.SetNodeP(2, 0.05)
	if qg.Version() == before {
		t.Fatal("SetNodeP should bump the graph version")
	}
	r4 := e.RankCtx(context.Background(), req)
	if r4.Err != nil {
		t.Fatal(r4.Err)
	}
	for m, hit := range r4.Cached {
		if hit {
			t.Errorf("post-mutation evaluation of %s must not be served from cache", m)
		}
	}
	// The mutation lowered a path probability, so reliability must drop.
	if r4.Results["reliability"].Scores[0] >= r1.Results["reliability"].Scores[0] {
		t.Errorf("reliability %v should drop below %v after cutting node b",
			r4.Results["reliability"].Scores[0], r1.Results["reliability"].Scores[0])
	}
}

// TestEngineErrors covers the failure paths: no resolver, resolver
// failure, unknown method.
func TestEngineErrors(t *testing.T) {
	e := New(nil, Config{Workers: 1})
	defer e.Close()
	if resp := e.RankCtx(context.Background(), Request{Source: "x"}); resp.Err == nil {
		t.Fatal("no graph and no resolver should error")
	}
	if resp := e.RankCtx(context.Background(), Request{Source: "x", Graph: diamond(), Methods: []string{"bogus"}}); resp.Err == nil {
		t.Fatal("unknown method should error")
	}

	resolver, _ := testResolver(t)
	e2 := New(resolver, Config{Workers: 2})
	defer e2.Close()
	resps := e2.QueryBatchCtx(context.Background(), []Request{
		{Source: "NO-SUCH-PROTEIN"},
		{Source: "ABCC8", Options: Options{Trials: 100, Reduce: true}},
	})
	if resps[0].Err == nil {
		t.Error("unresolvable protein should fail its request")
	}
	if resps[1].Err != nil {
		t.Errorf("good request must not be poisoned by a bad one: %v", resps[1].Err)
	}
}

// TestEngineMediatorResolverCacheHit checks that two resolutions of the
// same protein produce fingerprint-identical graphs, i.e. the cache
// works across resolver calls, not just for pinned graphs.
func TestEngineMediatorResolverCacheHit(t *testing.T) {
	resolver, proteins := testResolver(t)
	e := New(resolver, Config{Workers: 2})
	defer e.Close()
	opts := Options{Trials: 300, Seed: 1, Reduce: true}
	p := proteins[0]
	r1 := e.RankCtx(context.Background(), Request{Source: p, Options: opts})
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	r2 := e.RankCtx(context.Background(), Request{Source: p, Options: opts})
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	for m, hit := range r2.Cached {
		if !hit {
			t.Errorf("re-querying %s should hit the cache for %s", p, m)
		}
	}
}

func TestEngineCloseIdempotent(t *testing.T) {
	e := New(nil, Config{Workers: 1})
	e.Close()
	e.Close() // must not panic or deadlock
	for _, resp := range e.QueryBatchCtx(context.Background(), []Request{{Source: "late", Graph: diamond()}}) {
		if resp.Err != ErrClosed {
			t.Fatalf("post-Close batch error = %v, want ErrClosed", resp.Err)
		}
		if resp.Source != "late" {
			t.Fatalf("post-Close response must echo the source, got %q", resp.Source)
		}
	}
}

// TestEngineCloseDuringBatch races Close against in-flight batches:
// submitted requests must complete (or fail cleanly with ErrClosed if
// they arrived after Close won), and nothing may panic with a send on
// a closed channel. Run under -race this also checks the
// closed-flag/channel ordering.
func TestEngineCloseDuringBatch(t *testing.T) {
	for round := 0; round < 20; round++ {
		e := New(nil, Config{Workers: 2, CacheSize: -1})
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reqs := []Request{
					{Source: "a", Graph: diamond(), Methods: []string{"inedge"}},
					{Source: "b", Graph: diamond(), Methods: []string{"pathcount"}},
				}
				for _, resp := range e.QueryBatchCtx(context.Background(), reqs) {
					if resp.Err != nil && resp.Err != ErrClosed {
						t.Errorf("unexpected error: %v", resp.Err)
					}
					if resp.Err == nil && len(resp.Results) != 1 {
						t.Error("accepted batch returned incomplete results")
					}
				}
			}()
		}
		e.Close()
		wg.Wait()
	}
}
