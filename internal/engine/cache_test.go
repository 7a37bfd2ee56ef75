package engine

import (
	"context"
	"testing"

	"biorank/internal/rank"
)

func key(i int) cacheKey {
	return cacheKey{source: "s", fp: uint64(i), method: "reliability"}
}

func scoresOnly(vs ...float64) rank.Result { return rank.Result{Scores: vs} }

// resultCache is the engine's result LRU: tagged by query source, and
// copying results on the way in and out.
type resultCache = lru[cacheKey, string, rank.Result]

func newResultCache(capacity int) *resultCache {
	return newLRU[cacheKey, string](capacity, cloneResult)
}

// getScores returns the cached score slice, or nil on a miss — the shape
// most tests want.
func getScores(c *resultCache, k cacheKey) []float64 {
	res, ok := c.get(k)
	if !ok {
		return nil
	}
	return res.Scores
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.put(key(1), "s", scoresOnly(1))
	c.put(key(2), "s", scoresOnly(2))
	// Touch 1 so 2 becomes the eviction victim.
	if got := getScores(c, key(1)); got == nil || got[0] != 1 {
		t.Fatalf("get(1) = %v", got)
	}
	c.put(key(3), "s", scoresOnly(3))
	if getScores(c, key(2)) != nil {
		t.Error("key 2 should have been evicted as least recently used")
	}
	if getScores(c, key(1)) == nil || getScores(c, key(3)) == nil {
		t.Error("keys 1 and 3 should survive")
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2", s.Entries)
	}
	if s.Hits != 3 || s.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", s.Hits, s.Misses)
	}
}

// TestLRUTagIndex pins the tag index: tagged finds an entry under its
// tag, eviction and replacement leave no dead entry under a tag, and
// removeTags drops exactly the listed tags' entries, counted as
// invalidations.
func TestLRUTagIndex(t *testing.T) {
	c := newLRU[int, string, int](3, nil)
	c.put(1, "a", 10)
	c.put(2, "a", 20)
	c.put(3, "b", 30)
	if v, ok := c.tagged("a"); !ok || (v != 10 && v != 20) {
		t.Fatalf("tagged(a) = %v, %v; want 10 or 20", v, ok)
	}
	c.put(4, "c", 40) // evicts key 1
	c.put(2, "c", 21) // moves key 2 from tag a to tag c
	if v, ok := c.tagged("a"); ok {
		t.Fatalf("tagged(a) = %v after its entries were evicted or retagged", v)
	}
	if n := c.removeTags([]string{"c", "none"}); n != 2 {
		t.Fatalf("removeTags removed %d entries, want 2", n)
	}
	if s := c.Stats(); s.Invalidations != 2 || s.Evictions != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v, want 2 invalidations, 1 eviction, 1 entry", s)
	}
	if v, ok := c.get(3); !ok || v != 30 {
		t.Fatalf("get(3) = %v, %v; the untouched tag's entry was lost", v, ok)
	}
}

func TestCacheUpdateInPlace(t *testing.T) {
	c := newResultCache(2)
	c.put(key(1), "s", scoresOnly(1))
	c.put(key(1), "s", scoresOnly(10))
	if got := getScores(c, key(1)); got[0] != 10 {
		t.Fatalf("update not applied: %v", got)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Errorf("duplicate put must not grow the cache: %d entries", s.Entries)
	}
}

func TestCacheDisabled(t *testing.T) {
	var c *resultCache // engine uses a nil cache when caching is off
	if _, ok := c.get(key(1)); ok {
		t.Fatal("nil cache must always miss")
	}
	c.put(key(1), "s", scoresOnly(1)) // must not panic
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
	if newResultCache(-1) != nil {
		t.Fatal("non-positive capacity should disable the cache")
	}
}

// TestDisabledResultCacheAllocatesNothing pins that a disabled result
// cache checks for nil before it copies: a put and a get must not
// allocate, or every request of an uncached engine pays for a copy of
// each result it will never store.
func TestDisabledResultCacheAllocatesNothing(t *testing.T) {
	var c *resultCache
	res := rank.Result{Scores: []float64{0.9, 0.5}, Lo: []float64{0.8, 0.4}, Hi: []float64{1, 0.6}, Exact: []bool{false, true}}
	if n := testing.AllocsPerRun(100, func() {
		c.put(key(1), "s", res)
		c.get(key(1))
	}); n != 0 {
		t.Fatalf("put+get on a disabled cache allocated %v times, want 0", n)
	}
}

// TestCacheNoAliasing is the regression test for the score-slice
// aliasing bug: a caller that mutates the slices it got from get (e.g.
// sorts scores in place) or keeps mutating the slices it passed to put
// must not be able to corrupt the cached entry.
func TestCacheNoAliasing(t *testing.T) {
	c := newResultCache(4)
	orig := rank.Result{
		Scores: []float64{0.9, 0.5, 0.1},
		Lo:     []float64{0.8, 0.4, 0.0},
		Hi:     []float64{1.0, 0.6, 0.2},
		Exact:  []bool{true, false, false},
	}
	c.put(key(1), "s", orig)

	// Mutating the slices the caller handed to put must not leak in.
	orig.Scores[0] = -1
	orig.Lo[0] = -1
	orig.Exact[0] = false
	if got, _ := c.get(key(1)); got.Scores[0] != 0.9 || got.Lo[0] != 0.8 || !got.Exact[0] {
		t.Fatalf("put aliased the caller's slices: %+v", got)
	}

	// Mutating the slices a hit returned must not corrupt later hits.
	first, _ := c.get(key(1))
	first.Scores[0], first.Scores[1], first.Scores[2] = 0, 0, 0 // in-place sort
	first.Hi[0] = 0
	first.Exact[0] = false
	second, _ := c.get(key(1))
	wantScores := []float64{0.9, 0.5, 0.1}
	for i := range wantScores {
		if second.Scores[i] != wantScores[i] {
			t.Fatalf("get aliased the cached slice: hit = %v, want %v", second.Scores, wantScores)
		}
	}
	if second.Hi[0] != 1.0 || !second.Exact[0] {
		t.Fatalf("get aliased the cached lo/hi/exact: %+v", second)
	}

	// The update-in-place path must copy too.
	upd := scoresOnly(0.7)
	c.put(key(1), "s", upd)
	upd.Scores[0] = 42
	if got := getScores(c, key(1)); got[0] != 0.7 {
		t.Fatalf("update aliased the caller's slice: cached[0] = %v", got[0])
	}
	// An entry without uncertainty payload round-trips with nil slices.
	if got, _ := c.get(key(1)); got.Lo != nil || got.Hi != nil || got.Exact != nil {
		t.Fatalf("plain entry grew uncertainty payload: %+v", got)
	}
}

// TestCacheKeyIgnoresUnreadEstimatorFields is the regression test for
// result-cache keys that held estimator fields the method never reads:
// the deterministic methods ignore Seed, Trials and Worlds, so requests
// differing only there must share one entry per method.
func TestCacheKeyIgnoresUnreadEstimatorFields(t *testing.T) {
	e := New(fixedResolver(diamond()), Config{Workers: 1})
	defer e.Close()
	methods := []string{"inedge", "pathcount", "propagation"}
	for seed := uint64(1); seed <= 3; seed++ {
		resp := e.RankCtx(context.Background(), Request{Source: "d", Methods: methods,
			Options: Options{Seed: seed, Trials: 100 * int(seed), Worlds: seed == 2}})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		for _, m := range methods {
			if resp.Cached[m] != (seed > 1) {
				t.Errorf("seed %d: %s cached = %v", seed, m, resp.Cached[m])
			}
		}
	}
	if s := e.CacheStats(); s.Misses != 3 || s.Hits != 6 || s.Entries != 3 {
		t.Fatalf("cache stats %+v, want 3 misses, 6 hits, 3 entries", s)
	}
}
