package graph

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync/atomic"
)

// QueryGraph is the probabilistic query graph of Definition 2.3: a
// probabilistic entity graph together with a distinguished query node s
// and an answer set A ⊂ N. Relevance functions (internal/rank) score the
// answer nodes of a QueryGraph.
//
// Values derived from a query graph, such as its Fingerprint and its
// compiled kernel plan, are memoized on it by Derive under the graph's
// Version, which only the graph's own mutators bump. So Graph, Source
// and Answers must never be reassigned after construction
// (UnmarshalJSON, which replaces all three, forgets the derived values);
// mutate the graph through its methods.
type QueryGraph struct {
	*Graph
	Source  NodeID
	Answers []NodeID

	derived atomic.Pointer[derivedValues]
}

// derivedValues is Derive's memo: the values built at one Version. It
// is never modified once published; Derive replaces it whole.
type derivedValues struct {
	version uint64
	vals    []derivedValue
}

type derivedValue struct{ key, val any }

// Derive returns build(qg), memoized on qg under key until the graph's
// Version changes, so every holder of one query graph shares a single
// derived value. key names the derivation as a context key does: a
// value of an unexported type, always paired with the same T. Derive is
// safe for concurrent use; goroutines that race to a missing value each
// build it, and all but the first to publish return the published one.
func Derive[K comparable, T any](qg *QueryGraph, key K, build func(*QueryGraph) T) T {
	v := qg.Version()
	var val T
	built := false
	for {
		cur := qg.derived.Load()
		var vals []derivedValue
		if cur != nil && cur.version == v {
			for _, d := range cur.vals {
				if d.key == any(key) {
					return d.val.(T)
				}
			}
			vals = cur.vals
		}
		if !built {
			val, built = build(qg), true
		}
		next := &derivedValues{version: v, vals: append(slices.Clip(vals), derivedValue{key, val})}
		if qg.derived.CompareAndSwap(cur, next) {
			return val
		}
	}
}

// NewQueryGraph validates and builds a query graph over g.
func NewQueryGraph(g *Graph, source NodeID, answers []NodeID) (*QueryGraph, error) {
	if !g.valid(source) {
		return nil, fmt.Errorf("graph: source node %d out of range", source)
	}
	seen := make(map[NodeID]struct{}, len(answers))
	for _, a := range answers {
		if !g.valid(a) {
			return nil, fmt.Errorf("graph: answer node %d out of range", a)
		}
		if _, dup := seen[a]; dup {
			return nil, fmt.Errorf("graph: duplicate answer node %d", a)
		}
		seen[a] = struct{}{}
	}
	return &QueryGraph{Graph: g, Source: source, Answers: answers}, nil
}

// Prune returns a new query graph restricted to nodes that lie on some
// directed path from the source to an answer node (the source and answers
// themselves always survive). Nodes outside that set can never influence
// any of the five relevance semantics, so pruning is a safe preprocessing
// step shared by all rankers.
func (qg *QueryGraph) Prune() *QueryGraph {
	keep := qg.CoReachable(qg.Answers, qg.Reachable(qg.Source))
	keep[qg.Source] = true
	sub, remap := qg.InducedSubgraph(keep, 0, 0)
	answers := make([]NodeID, 0, len(qg.Answers))
	for _, a := range qg.Answers {
		if remap[a] >= 0 {
			answers = append(answers, remap[a])
		}
	}
	out, err := NewQueryGraph(sub, remap[qg.Source], answers)
	if err != nil {
		// Cannot happen: remapped IDs are valid by construction.
		panic(err)
	}
	return out
}

// CloneShallowProbs returns a copy of the query graph sharing structure
// but with independently mutable probabilities. Used by the sensitivity
// analysis, which perturbs probabilities m times per graph.
func (qg *QueryGraph) CloneShallowProbs() *QueryGraph {
	g := qg.Graph.Clone()
	return &QueryGraph{Graph: g, Source: qg.Source, Answers: append([]NodeID(nil), qg.Answers...)}
}

// Fingerprint returns a structural hash of the query graph: every node
// (kind, label, p), every edge (endpoints, kind, q), the source, and the
// answer set all feed an FNV-1a digest. Two query graphs with the same
// fingerprint score identically under every relevance semantics, so the
// fingerprint — together with the underlying graph's Version — is a safe
// cache key for ranking results. The value is memoized by Derive, so a
// query graph shared by many requests is hashed once per Version.
func (qg *QueryGraph) Fingerprint() uint64 {
	return Derive(qg, fingerprintKey{}, func(qg *QueryGraph) uint64 { return qg.fingerprint(true) })
}

type fingerprintKey struct{}

// TopoFingerprint returns a hash of the query graph's topology only:
// node identities, edge wiring and kinds, source, and answers — with all
// probabilities excluded. Two query graphs with equal topo fingerprints
// differ (up to hash collision) only in their p/q values, which is the
// precondition for patching a compiled plan's coin thresholds in place of
// a full recompile (kernel.Plan.Patch).
func (qg *QueryGraph) TopoFingerprint() uint64 { return qg.fingerprint(false) }

// fingerprint is the one FNV-1a walk behind both fingerprints; probs
// selects whether node and edge probabilities feed the digest.
func (qg *QueryGraph) fingerprint(probs bool) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	ws := func(s string) {
		wu(uint64(len(s)))
		h.Write([]byte(s))
	}
	wu(uint64(qg.NumNodes()))
	for i := 0; i < qg.NumNodes(); i++ {
		n := qg.Node(NodeID(i))
		ws(n.Kind)
		ws(n.Label)
		if probs {
			wu(math.Float64bits(n.P))
		}
	}
	wu(uint64(qg.NumEdges()))
	for i := 0; i < qg.NumEdges(); i++ {
		e := qg.Edge(EdgeID(i))
		wu(uint64(uint32(e.From))<<32 | uint64(uint32(e.To)))
		ws(e.Kind)
		if probs {
			wu(math.Float64bits(e.Q))
		}
	}
	wu(uint64(uint32(qg.Source)))
	wu(uint64(len(qg.Answers)))
	for _, a := range qg.Answers {
		wu(uint64(uint32(a)))
	}
	return h.Sum64()
}

// AnswerIndex returns a map from answer node ID to its index within the
// Answers slice.
func (qg *QueryGraph) AnswerIndex() map[NodeID]int {
	idx := make(map[NodeID]int, len(qg.Answers))
	for i, a := range qg.Answers {
		idx[a] = i
	}
	return idx
}
