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

// PlanCacheStats reports the plan cache's cumulative counters. A plan
// hit means a ranking request skipped CSR compilation entirely; a patch
// means a miss was served by rewriting the coin thresholds of a
// topology-equal predecessor (kernel.Plan.Patch) instead of compiling
// from scratch.
type PlanCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Patches   int64
	Entries   int
}

// cloneResult deep-copies a result's slices, so a cache entry never
// aliases slices a caller can mutate, in either direction: the engine
// hands the result it stores to the response it returns, and a caller
// may sort or edit a hit's slices in place.
func cloneResult(r rank.Result) rank.Result {
	r.Scores = append([]float64(nil), r.Scores...)
	r.Lo = append([]float64(nil), r.Lo...)
	r.Hi = append([]float64(nil), r.Hi...)
	r.Exact = append([]bool(nil), r.Exact...)
	return r
}

// lru is a mutex-guarded least-recently-used map from K to V whose
// entries each carry a tag T. The tag index serves the engine's two
// secondary lookups: removeTags drops every entry under the listed tags
// (results are tagged by query source, for scoped invalidation), and
// tagged finds an entry under a tag (plans are tagged by topology
// fingerprint, to find a predecessor to patch). A nil *lru is a
// disabled cache: every get misses and every put is dropped, before
// anything is copied.
type lru[K, T comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
	tags  map[T]map[*list.Element]struct{}
	// clone, when non-nil, copies values on the way in and on the way
	// out of the cache.
	clone func(V) V
	stats CacheStats
}

type lruEntry[K, T comparable, V any] struct {
	key K
	tag T
	val V
}

// newLRU returns an LRU holding up to capacity entries, or nil (a
// disabled cache) when capacity is not positive.
func newLRU[K, T comparable, V any](capacity int, clone func(V) V) *lru[K, T, V] {
	if capacity <= 0 {
		return nil
	}
	return &lru[K, T, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element, capacity),
		tags:  make(map[T]map[*list.Element]struct{}),
		clone: clone,
	}
}

// get returns the value under key and marks it most recently used.
func (c *lru[K, T, V]) get(key K) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return v, false
	}
	c.stats.Hits++
	c.ll.MoveToFront(el)
	return c.out(el), true
}

// tagged returns the value of some entry under tag. It counts neither a
// hit nor a miss and leaves recency alone: the engine only asks after
// get already missed.
func (c *lru[K, T, V]) tagged(tag T) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := range c.tags[tag] {
		return c.out(el), true
	}
	return v, false
}

// put stores v under key and tag as the most recently used entry,
// replacing any entry under key, and evicts the least recently used
// entries beyond capacity.
func (c *lru[K, T, V]) put(key K, tag T, v V) {
	if c == nil {
		return
	}
	if c.clone != nil {
		v = c.clone(v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	el := c.ll.PushFront(&lruEntry[K, T, V]{key: key, tag: tag, val: v})
	c.items[key] = el
	set := c.tags[tag]
	if set == nil {
		set = make(map[*list.Element]struct{})
		c.tags[tag] = set
	}
	set[el] = struct{}{}
	for c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back())
		c.stats.Evictions++
	}
}

// removeTags removes every entry under the listed tags and returns how
// many were dropped, counting them as invalidations.
func (c *lru[K, T, V]) removeTags(tags []T) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range tags {
		for el := range c.tags[t] {
			c.removeLocked(el)
			n++
		}
	}
	c.stats.Invalidations += int64(n)
	return n
}

// Stats snapshots the counters.
func (c *lru[K, T, V]) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}

// out returns an entry's value, cloned when the cache clones. Callers
// hold c.mu.
func (c *lru[K, T, V]) out(el *list.Element) V {
	v := el.Value.(*lruEntry[K, T, V]).val
	if c.clone != nil {
		v = c.clone(v)
	}
	return v
}

// removeLocked unlinks one entry from the list, the key map and the tag
// index. Callers hold c.mu and account the removal themselves.
func (c *lru[K, T, V]) removeLocked(el *list.Element) {
	e := el.Value.(*lruEntry[K, T, V])
	c.ll.Remove(el)
	delete(c.items, e.key)
	set := c.tags[e.tag]
	delete(set, el)
	if len(set) == 0 {
		delete(c.tags, e.tag)
	}
}
