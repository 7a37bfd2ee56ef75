package graph

import (
	"fmt"
	"sort"
	"sync"
)

// Store wraps a Graph as a live, concurrently mutable database: readers
// take consistent snapshots under a read lock while ingestion applies
// deltas under the write lock. The write-ahead log behind the durability
// hook is the only delta history.
//
// The locking granularity is deliberately coarse. Queries clone the
// reachable subgraph out of the store (Exploratory.Run copies before it
// mutates), so the read critical section is a single traversal + copy;
// writes are delta-sized. Under the paper's workloads — many reads, a
// trickle of source updates — a RWMutex is far from contention.
type Store struct {
	mu sync.RWMutex
	g  *Graph

	deltas    uint64 // total deltas applied over the store's lifetime
	probOnly  uint64 // deltas that changed probabilities only
	nodesAdd  uint64
	edgesAdd  uint64
	probEdits uint64

	durability Durability // optional write-ahead hook; nil means volatile
}

// Durability is the write-ahead hook a Store calls under its write lock,
// after a delta validates but before it commits to the in-memory graph.
// seq is the delta's sequence number (the store's lifetime applied-delta
// count, 1-based and contiguous) and prevVersion the graph version the
// delta will apply on top of. If Append returns an error the delta is
// rejected and the in-memory graph is left untouched — a durability
// failure must not let acknowledged state outrun the log.
type Durability interface {
	Append(seq, prevVersion uint64, d Delta) error
}

// NewStore takes ownership of g and serves it as a live store. The caller
// must not mutate g afterwards except through the store.
func NewStore(g *Graph) *Store {
	return &Store{g: g}
}

// NewStoreAt is NewStore for a graph recovered from a checkpoint: the
// store resumes its lifetime applied-delta counter at appliedDeltas so
// sequence numbers handed to the durability hook stay contiguous with the
// log that was replayed.
func NewStoreAt(g *Graph, appliedDeltas uint64) *Store {
	return &Store{g: g, deltas: appliedDeltas}
}

// SetDurability installs the write-ahead hook. Must be called before
// concurrent use; a nil hook restores volatile operation.
func (s *Store) SetDurability(d Durability) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.durability = d
}

// Apply validates one delta, appends it to the durability hook if one is
// installed, applies it and updates the counters, all under the write
// lock, and returns what changed. A crash after the append replays the
// delta on recovery (replay is idempotent), while an append failure
// rejects the delta entirely — the in-memory state never runs ahead of
// the log.
func (s *Store) Apply(d Delta) (DeltaResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.g.ValidateDelta(d); err != nil {
		return DeltaResult{}, err
	}
	if s.durability != nil {
		if err := s.durability.Append(s.deltas+1, s.g.Version(), d); err != nil {
			return DeltaResult{}, fmt.Errorf("graph: durability append: %w", err)
		}
	}
	res := s.g.applyDeltaUnchecked(d)
	s.deltas++
	if res.ProbOnly {
		s.probOnly++
	}
	s.nodesAdd += uint64(res.NodesAdded)
	s.edgesAdd += uint64(res.EdgesAdded)
	s.probEdits += uint64(res.ProbChanges)
	return res, nil
}

// View runs fn with the live graph under the read lock. fn must not
// mutate the graph and must not retain it past the call; copy out
// whatever outlives the critical section.
func (s *Store) View(fn func(*Graph)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.g)
}

// ViewAt runs fn with the live graph and the store's applied-delta
// sequence number under the read lock, so a checkpoint can capture a
// graph snapshot and the WAL position it corresponds to atomically. The
// same retention rules as View apply.
func (s *Store) ViewAt(fn func(g *Graph, seq uint64)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.g, s.deltas)
}

// Version returns the live graph's mutation counter.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.g.Version()
}

// SourcesReaching returns, sorted, the labels of all nodes of the given
// kind that can reach any node in affected. These are exactly the query
// sources whose integrated neighborhoods a delta may have changed: a
// cached result for any other source is still valid, because reachability
// from it was not altered (the graph only grows and probability edits
// only touch affected nodes).
//
// affected holds NodeIDs from a DeltaResult; IDs remain valid across
// later deltas because nodes are never deleted.
func (s *Store) SourcesReaching(kind string, affected []NodeID) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(affected) == 0 {
		return nil
	}
	co := s.g.CoReachable(affected, nil)
	var labels []string
	for i := 0; i < s.g.NumNodes(); i++ {
		if co[i] {
			if n := s.g.Node(NodeID(i)); n.Kind == kind {
				labels = append(labels, n.Label)
			}
		}
	}
	sort.Strings(labels)
	return labels
}

// StoreStats summarizes the store for observability endpoints.
type StoreStats struct {
	Nodes, Edges   int
	Version        uint64
	Deltas         uint64
	ProbOnlyDeltas uint64
	NodesAdded     uint64
	EdgesAdded     uint64
	ProbChanges    uint64
	// Epochs maps each upstream source name to its ingestion epoch.
	Epochs map[string]uint64
}

// Stat returns a snapshot of the store's counters.
func (s *Store) Stat() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return StoreStats{
		Nodes:          s.g.NumNodes(),
		Edges:          s.g.NumEdges(),
		Version:        s.g.Version(),
		Deltas:         s.deltas,
		ProbOnlyDeltas: s.probOnly,
		NodesAdded:     s.nodesAdd,
		EdgesAdded:     s.edgesAdd,
		ProbChanges:    s.probEdits,
		Epochs:         s.g.SourceEpochs(),
	}
}
