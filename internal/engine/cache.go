package engine

import (
	"container/list"
	"sync"

	"biorank/internal/rank"
)

// cacheKey identifies one cached ranking result. A key is only ever
// reproduced by a query whose graph is byte-for-byte equivalent: the
// fingerprint hashes the full pruned query graph (nodes, edges,
// probabilities, source, answer set), so any content change — including
// a probability revision delivered by a source delta — produces a
// different key and can never be served a stale entry. est is the
// estimator normalised for the method (rank.Spec.Key): it holds exactly
// the fields the method reads, so requests differing only in fields the
// method ignores share one entry.
type cacheKey struct {
	source string // query identity (e.g. the protein keyword)
	fp     uint64 // query-graph fingerprint (content hash)
	method string
	est    rank.Estimator
}

// CacheStats reports the cache's cumulative effectiveness counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Invalidations counts entries removed by scoped invalidation
	// (Engine.InvalidateSources) — distinct from Evictions, which are
	// capacity pressure.
	Invalidations int64
	Entries       int
}

// cachedResult is the cache's value type: the score vector plus the
// optional uncertainty payload (confidence bounds and exact markers)
// some estimators attach. Lo/Hi/Exact are nil when the method that
// produced the entry does not report them.
type cachedResult struct {
	scores []float64
	lo, hi []float64
	exact  []bool
}

// clone deep-copies the payload so cache entries never alias slices a
// caller can mutate (in either direction).
func (r cachedResult) clone() cachedResult {
	c := cachedResult{scores: append([]float64(nil), r.scores...)}
	if r.lo != nil {
		c.lo = append([]float64(nil), r.lo...)
	}
	if r.hi != nil {
		c.hi = append([]float64(nil), r.hi...)
	}
	if r.exact != nil {
		c.exact = append([]bool(nil), r.exact...)
	}
	return c
}

// resultCache is a mutex-guarded LRU mapping cacheKey to results, with a
// secondary index by query source so a delta can invalidate exactly the
// sources whose reachable subgraphs it touched.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
	// bySource indexes live entries by cacheKey.source for scoped
	// invalidation; maintained by put/remove so it never holds dead
	// elements.
	bySource map[string]map[*list.Element]struct{}
	stats    CacheStats
}

type cacheEntry struct {
	key cacheKey
	res cachedResult
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil // caching disabled
	}
	return &resultCache{
		cap:      capacity,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element, capacity),
		bySource: make(map[string]map[*list.Element]struct{}),
	}
}

// get returns a copy of the cached result for key. Copying on the way
// out means a caller that sorts or otherwise edits the returned slices
// in place cannot corrupt the cached entry for later hits.
func (c *resultCache) get(key cacheKey) (cachedResult, bool) {
	if c == nil {
		return cachedResult{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return cachedResult{}, false
	}
	c.stats.Hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res.clone(), true
}

// put stores a copy of res under key, evicting the least recently used
// entry when over capacity. Copying on the way in means the cache never
// aliases slices the caller keeps (the engine hands the same result to
// the response it returns), so later caller mutations cannot leak into
// cached results.
func (c *resultCache) put(key cacheKey, res cachedResult) {
	if c == nil {
		return
	}
	res = res.clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, res: res})
	c.items[key] = el
	set := c.bySource[key.source]
	if set == nil {
		set = make(map[*list.Element]struct{})
		c.bySource[key.source] = set
	}
	set[el] = struct{}{}
	for c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back())
		c.stats.Evictions++
	}
}

// removeLocked unlinks one entry from the list, the key map and the
// source index. Callers hold c.mu and account the removal themselves.
func (c *resultCache) removeLocked(el *list.Element) {
	key := el.Value.(*cacheEntry).key
	c.ll.Remove(el)
	delete(c.items, key)
	if set := c.bySource[key.source]; set != nil {
		delete(set, el)
		if len(set) == 0 {
			delete(c.bySource, key.source)
		}
	}
}

// invalidateSources removes every entry whose query source is listed and
// returns how many were dropped: a delta invalidates exactly the sources
// that can reach an affected node, and every other source's entries keep
// serving hits.
func (c *resultCache) invalidateSources(sources []string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range sources {
		set := c.bySource[s]
		for el := range set {
			c.removeLocked(el)
			n++
		}
	}
	c.stats.Invalidations += int64(n)
	return n
}

// Stats snapshots the counters.
func (c *resultCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}
