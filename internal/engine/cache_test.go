package engine

import (
	"context"
	"testing"
)

func key(i int) cacheKey {
	return cacheKey{source: "s", fp: uint64(i), method: "reliability"}
}

func scoresOnly(vs ...float64) cachedResult { return cachedResult{scores: vs} }

// getScores returns the cached score slice, or nil on a miss — the shape
// most tests want.
func getScores(c *resultCache, k cacheKey) []float64 {
	res, ok := c.get(k)
	if !ok {
		return nil
	}
	return res.scores
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.put(key(1), scoresOnly(1))
	c.put(key(2), scoresOnly(2))
	// Touch 1 so 2 becomes the eviction victim.
	if got := getScores(c, key(1)); got == nil || got[0] != 1 {
		t.Fatalf("get(1) = %v", got)
	}
	c.put(key(3), scoresOnly(3))
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

func TestCacheUpdateInPlace(t *testing.T) {
	c := newResultCache(2)
	c.put(key(1), scoresOnly(1))
	c.put(key(1), scoresOnly(10))
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
	c.put(key(1), scoresOnly(1)) // must not panic
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
	if newResultCache(-1) != nil {
		t.Fatal("non-positive capacity should disable the cache")
	}
}

// TestCacheNoAliasing is the regression test for the score-slice
// aliasing bug: a caller that mutates the slices it got from get (e.g.
// sorts scores in place) or keeps mutating the slices it passed to put
// must not be able to corrupt the cached entry.
func TestCacheNoAliasing(t *testing.T) {
	c := newResultCache(4)
	orig := cachedResult{
		scores: []float64{0.9, 0.5, 0.1},
		lo:     []float64{0.8, 0.4, 0.0},
		hi:     []float64{1.0, 0.6, 0.2},
		exact:  []bool{true, false, false},
	}
	c.put(key(1), orig)

	// Mutating the slices the caller handed to put must not leak in.
	orig.scores[0] = -1
	orig.lo[0] = -1
	orig.exact[0] = false
	if got, _ := c.get(key(1)); got.scores[0] != 0.9 || got.lo[0] != 0.8 || !got.exact[0] {
		t.Fatalf("put aliased the caller's slices: %+v", got)
	}

	// Mutating the slices a hit returned must not corrupt later hits.
	first, _ := c.get(key(1))
	first.scores[0], first.scores[1], first.scores[2] = 0, 0, 0 // in-place sort
	first.hi[0] = 0
	first.exact[0] = false
	second, _ := c.get(key(1))
	wantScores := []float64{0.9, 0.5, 0.1}
	for i := range wantScores {
		if second.scores[i] != wantScores[i] {
			t.Fatalf("get aliased the cached slice: hit = %v, want %v", second.scores, wantScores)
		}
	}
	if second.hi[0] != 1.0 || !second.exact[0] {
		t.Fatalf("get aliased the cached lo/hi/exact: %+v", second)
	}

	// The update-in-place path must copy too.
	upd := scoresOnly(0.7)
	c.put(key(1), upd)
	upd.scores[0] = 42
	if got := getScores(c, key(1)); got[0] != 0.7 {
		t.Fatalf("update aliased the caller's slice: cached[0] = %v", got[0])
	}
	// An entry without uncertainty payload round-trips with nil slices.
	if got, _ := c.get(key(1)); got.lo != nil || got.hi != nil || got.exact != nil {
		t.Fatalf("plain entry grew uncertainty payload: %+v", got)
	}
}

// TestCacheKeyIgnoresUnreadEstimatorFields is the regression test for
// result-cache keys that held estimator fields the method never reads:
// the deterministic methods ignore Seed, Trials and Worlds, so requests
// differing only there must share one entry per method.
func TestCacheKeyIgnoresUnreadEstimatorFields(t *testing.T) {
	e := New(nil, Config{Workers: 1})
	defer e.Close()
	qg := diamond()
	methods := []string{"inedge", "pathcount", "propagation"}
	for seed := uint64(1); seed <= 3; seed++ {
		resp := e.RankCtx(context.Background(), Request{Source: "d", Graph: qg, Methods: methods,
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
