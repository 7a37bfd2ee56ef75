package engine

import (
	"container/list"
	"sync"

	"biorank/internal/kernel"
)

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

// DefaultPlanCacheSize is the default plan-cache capacity. Plans are a
// few hundred bytes per graph element, far smaller than the graphs they
// are compiled from.
const DefaultPlanCacheSize = 256

// planCache is a mutex-guarded LRU mapping query-graph fingerprints to
// compiled plans. Keying by content rather than graph identity is what
// makes the cache effective: the resolver builds a fresh QueryGraph
// object per query, but repeated queries for the same source produce
// fingerprint-equal graphs and reuse one plan. A secondary index by
// topology fingerprint serves the aftermath of a probability-only delta:
// the new content fingerprint misses, but the topology index still finds
// the predecessor plan to patch.
type planCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[uint64]*list.Element
	// byTopo maps a query graph's topology fingerprint to the most
	// recently stored plan with that wiring (probabilities aside).
	byTopo map[uint64]*list.Element
	stats  PlanCacheStats
}

type planEntry struct {
	key  uint64
	topo uint64
	plan *kernel.Plan
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		return nil // plan caching disabled
	}
	return &planCache{
		cap:    capacity,
		ll:     list.New(),
		items:  make(map[uint64]*list.Element, capacity),
		byTopo: make(map[uint64]*list.Element),
	}
}

// get returns the cached plan for fingerprint key, or nil.
func (c *planCache) get(key uint64) *kernel.Plan {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.ll.MoveToFront(el)
	return el.Value.(*planEntry).plan
}

// topoGet returns the latest plan whose graph had the given topology
// fingerprint, or nil. It does not count as a hit or miss: it only runs
// after get already missed, to decide between patching and compiling.
func (c *planCache) topoGet(topo uint64) *kernel.Plan {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byTopo[topo]; ok {
		return el.Value.(*planEntry).plan
	}
	return nil
}

// put stores a plan under key, evicting the least recently used entry
// when over capacity. patched records whether the plan was derived by
// Plan.Patch rather than compiled.
func (c *planCache) put(key, topo uint64, plan *kernel.Plan, patched bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if patched {
		c.stats.Patches++
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*planEntry)
		e.plan = plan
		e.topo = topo
		c.byTopo[topo] = el
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&planEntry{key: key, topo: topo, plan: plan})
	c.items[key] = el
	c.byTopo[topo] = el
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*planEntry)
		delete(c.items, e.key)
		// Only drop the topology index when it still points at the entry
		// being evicted; a newer plan with the same wiring keeps it.
		if c.byTopo[e.topo] == oldest {
			delete(c.byTopo, e.topo)
		}
		c.stats.Evictions++
	}
}

// Stats snapshots the counters.
func (c *planCache) Stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}
