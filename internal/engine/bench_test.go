package engine

import (
	"context"
	"testing"

	"biorank/internal/rank"
)

// benchOptions is cold_query's request: 1000-trial Monte Carlo, with the
// deprecated Reduce the served estimators ignore. Both competing
// implementations use it, and its values stay fixed so a benchmark pair
// of two commits sends the same request on both sides.
var benchOptions = Options{Trials: 1000, Seed: 1, Reduce: true}

// BenchmarkEngineBatch ranks every scenario-1 protein under all five
// semantics through the batched worker-pool engine. Caching is disabled
// so every iteration pays the full resolve+rank cost; the speedup over
// BenchmarkSequentialFiveMethods is pure batching/parallelism.
func BenchmarkEngineBatch(b *testing.B) {
	resolver, proteins := testResolver(b)
	e := New(resolver, Config{CacheSize: -1})
	defer e.Close()
	reqs := make([]Request, len(proteins))
	for i, p := range proteins {
		reqs[i] = Request{Source: p, Options: benchOptions}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, resp := range e.QueryBatchCtx(context.Background(), reqs) {
			if resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
	}
}

// BenchmarkSequentialFiveMethods is the baseline the engine replaces:
// one query at a time, one method at a time, rebuilding nothing but
// sharing the query graph per protein exactly like the engine does.
func BenchmarkSequentialFiveMethods(b *testing.B) {
	resolver, proteins := testResolver(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range proteins {
			qg, err := resolver.ResolveCtx(context.Background(), p)
			if err != nil {
				b.Fatal(err)
			}
			res, err := rank.RankAllCtx(context.Background(), qg, rank.AllOptions{
				Trials:     benchOptions.Trials,
				Seed:       benchOptions.Seed,
				Reduce:     benchOptions.Reduce,
				Sequential: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(res) != len(rank.MethodNames) {
				b.Fatal("incomplete result")
			}
		}
	}
}

// BenchmarkEngineBatchCached measures the steady-state cost once the
// LRU is warm: repeated identical batches should be dominated by cache
// lookups.
func BenchmarkEngineBatchCached(b *testing.B) {
	resolver, proteins := testResolver(b)
	e := New(resolver, Config{})
	defer e.Close()
	reqs := make([]Request, len(proteins))
	for i, p := range proteins {
		reqs[i] = Request{Source: p, Options: benchOptions}
	}
	e.QueryBatchCtx(context.Background(), reqs) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, resp := range e.QueryBatchCtx(context.Background(), reqs) {
			if resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
	}
}
