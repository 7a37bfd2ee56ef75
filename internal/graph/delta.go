package graph

import (
	"errors"
	"fmt"
)

// This file implements the structured deltas that turn the graph from a
// build-once artifact into an incrementally maintained database.
// Sources (Entrez, BLAST, annotation DBs) update continuously; a Delta is
// one batch of updates from one source, and ApplyDelta folds it into the
// graph while reporting exactly which nodes were touched so downstream
// caches can invalidate by reachability instead of nuking everything.

// OpKind enumerates the mutation operations a Delta may carry.
type OpKind uint8

const (
	// OpUpsertNode creates the node if absent, or updates its presence
	// probability if it already exists (merge semantics: re-delivered
	// records update in place rather than duplicating).
	OpUpsertNode OpKind = iota + 1
	// OpUpsertEdge creates the edge if no edge with the same endpoints
	// and relationship kind exists, or updates that edge's probability.
	OpUpsertEdge
	// OpSetNodeP updates an existing node's probability and fails if the
	// node is missing. Use it when the source asserts a revision to a
	// record it has already delivered.
	OpSetNodeP
	// OpSetEdgeQ updates an existing edge's probability and fails if no
	// matching edge exists.
	OpSetEdgeQ
)

// opNames are the ops' wire spellings, indexed by OpKind.
var opNames = [...]string{
	OpUpsertNode: "upsert-node",
	OpUpsertEdge: "upsert-edge",
	OpSetNodeP:   "set-node-p",
	OpSetEdgeQ:   "set-edge-q",
}

// String returns the op's wire spelling, the name /ingest accepts.
func (k OpKind) String() string {
	if k >= OpUpsertNode && k <= OpSetEdgeQ {
		return opNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// ParseOpKind is String's inverse over the four ops. It reports false
// for any other spelling.
func ParseOpKind(s string) (OpKind, bool) {
	for k := OpUpsertNode; k <= OpSetEdgeQ; k++ {
		if opNames[k] == s {
			return k, true
		}
	}
	return 0, false
}

// NodeRef addresses a node by identity rather than NodeID, so deltas are
// portable across graph instances (IDs are dense and assignment-order
// dependent; kind+label is the stable key the mediator dedupes on).
type NodeRef struct {
	Kind  string
	Label string
}

func (r NodeRef) String() string { return r.Kind + "/" + r.Label }

// Op is a single mutation within a Delta.
type Op struct {
	Kind OpKind

	// Node targets node operations (OpUpsertNode, OpSetNodeP).
	Node NodeRef
	// From/To/Rel target edge operations (OpUpsertEdge, OpSetEdgeQ).
	// Rel is the relationship kind in the mediated schema.
	From, To NodeRef
	Rel      string

	// P is the probability payload: node presence probability for node
	// ops, edge probability for edge ops.
	P float64
}

// Delta is one batch of mutations attributed to a single source. A Delta
// is applied atomically: either every op validates and the whole batch is
// folded in, or the graph is left untouched.
type Delta struct {
	Source string
	Ops    []Op
}

// DeltaResult reports what ApplyDelta changed.
type DeltaResult struct {
	Source  string
	Epoch   uint64 // per-source epoch after this delta
	Version uint64 // graph version after this delta

	// Affected lists the IDs of every node the delta touched: nodes that
	// were added or reweighted, and the endpoints of added or reweighted
	// edges. Downstream caches invalidate entries whose query source can
	// reach an affected node.
	Affected []NodeID

	// ProbOnly reports that the delta changed no topology — only node or
	// edge probabilities. Probability-only deltas permit compiled-plan
	// patching (coin-threshold rewrite) instead of recompilation.
	ProbOnly bool

	NodesAdded  int
	EdgesAdded  int
	ProbChanges int
	NoOps       int // ops that matched the current state exactly
}

// Changed reports whether the delta mutated the graph at all.
func (r DeltaResult) Changed() bool {
	return r.NodesAdded+r.EdgesAdded+r.ProbChanges > 0
}

// ErrEmptyDelta is returned when a delta carries no operations.
var ErrEmptyDelta = errors.New("graph: delta has no operations")

// findEdge locates an edge from->to with the given relationship kind,
// matching the mediator's dedup key. Parallel edges with the same kind are
// not produced by the integration pipeline; if present, the first wins.
func (g *Graph) findEdge(from, to NodeID, rel string) (EdgeID, bool) {
	for _, eid := range g.out[from] {
		e := g.edges[eid]
		if e.To == to && e.Kind == rel {
			return eid, true
		}
	}
	return -1, false
}

// ApplyDelta validates and applies a mutation batch. On success it bumps
// the per-source epoch (always, even for all-no-op deltas — the epoch
// records ingestion progress, not content change) and returns the affected
// node set. On error the graph is unchanged and the epoch is not bumped.
//
// Validation resolves node references against the graph plus nodes added
// earlier in the same delta, so a batch may add a node and then edges to
// it. Probabilities outside [0,1] (NaN included) and dangling references
// are rejected before anything is applied.
func (g *Graph) ApplyDelta(d Delta) (DeltaResult, error) {
	if err := g.ValidateDelta(d); err != nil {
		return DeltaResult{}, err
	}
	return g.applyDeltaUnchecked(d), nil
}

// ValidateDelta runs ApplyDelta's validation phase without mutating the
// graph: every op is checked against the current graph plus the nodes the
// delta itself will add. A nil error guarantees that applying the delta
// to this graph state cannot fail — which is what lets a write-ahead log
// append the delta durably *before* the in-memory commit.
func (g *Graph) ValidateDelta(d Delta) error {
	if d.Source == "" {
		return errors.New("graph: delta has no source")
	}
	if len(d.Ops) == 0 {
		return ErrEmptyDelta
	}

	// Validate every op against the current graph plus the nodes this
	// delta itself will add. No mutation happens here.
	pending := map[NodeRef]struct{}{}
	resolve := func(r NodeRef) (NodeID, bool, error) {
		if r.Kind == "" || r.Label == "" {
			return -1, false, fmt.Errorf("graph: incomplete node ref %q", r)
		}
		if id, ok := g.Lookup(r.Kind, r.Label); ok {
			return id, true, nil
		}
		if _, ok := pending[r]; ok {
			return -1, false, nil // will exist once the delta applies
		}
		return -1, false, fmt.Errorf("graph: delta references unknown node %s", r)
	}
	for i, op := range d.Ops {
		if !(op.P >= 0 && op.P <= 1) { // NaN fails both comparisons
			return fmt.Errorf("graph: delta op %d (%s): probability %g outside [0,1]", i, op.Kind, op.P)
		}
		switch op.Kind {
		case OpUpsertNode:
			if op.Node.Kind == "" || op.Node.Label == "" {
				return fmt.Errorf("graph: delta op %d: incomplete node ref %q", i, op.Node)
			}
			pending[op.Node] = struct{}{}
		case OpSetNodeP:
			// A node added earlier in this same delta is a valid target:
			// the upsert carries a probability and this op revises it.
			if _, _, err := resolve(op.Node); err != nil {
				return fmt.Errorf("graph: delta op %d (%s): %w", i, op.Kind, err)
			}
		case OpUpsertEdge, OpSetEdgeQ:
			if op.Rel == "" {
				return fmt.Errorf("graph: delta op %d (%s): missing relationship kind", i, op.Kind)
			}
			fromID, fromExists, err := resolve(op.From)
			if err != nil {
				return fmt.Errorf("graph: delta op %d (%s): from: %w", i, op.Kind, err)
			}
			toID, toExists, err := resolve(op.To)
			if err != nil {
				return fmt.Errorf("graph: delta op %d (%s): to: %w", i, op.Kind, err)
			}
			if op.Kind == OpSetEdgeQ {
				if !fromExists || !toExists {
					return fmt.Errorf("graph: delta op %d (%s): edge endpoints must pre-exist", i, op.Kind)
				}
				if _, ok := g.findEdge(fromID, toID, op.Rel); !ok {
					return fmt.Errorf("graph: delta op %d (%s): no %s edge %s -> %s", i, op.Kind, op.Rel, op.From, op.To)
				}
			}
		default:
			return fmt.Errorf("graph: delta op %d: unknown op kind %d", i, op.Kind)
		}
	}
	return nil
}

// applyDeltaUnchecked is the apply phase of ApplyDelta. The caller must
// have validated d against the current graph state: every reference is
// known to resolve, so the only remaining panics would be internal bugs.
func (g *Graph) applyDeltaUnchecked(d Delta) DeltaResult {
	res := DeltaResult{Source: d.Source}
	affected := map[NodeID]struct{}{}
	touch := func(id NodeID) { affected[id] = struct{}{} }
	for _, op := range d.Ops {
		switch op.Kind {
		case OpUpsertNode:
			if id, ok := g.Lookup(op.Node.Kind, op.Node.Label); ok {
				if g.nodes[id].P != op.P {
					g.SetNodeP(id, op.P)
					res.ProbChanges++
					touch(id)
				} else {
					res.NoOps++
				}
			} else {
				id := g.AddNode(op.Node.Kind, op.Node.Label, op.P)
				res.NodesAdded++
				touch(id)
			}
		case OpSetNodeP:
			id, _ := g.Lookup(op.Node.Kind, op.Node.Label)
			if g.nodes[id].P != op.P {
				g.SetNodeP(id, op.P)
				res.ProbChanges++
				touch(id)
			} else {
				res.NoOps++
			}
		case OpUpsertEdge:
			from, _ := g.Lookup(op.From.Kind, op.From.Label)
			to, _ := g.Lookup(op.To.Kind, op.To.Label)
			if eid, ok := g.findEdge(from, to, op.Rel); ok {
				if g.edges[eid].Q != op.P {
					g.SetEdgeQ(eid, op.P)
					res.ProbChanges++
					touch(from)
					touch(to)
				} else {
					res.NoOps++
				}
			} else {
				g.AddEdge(from, to, op.Rel, op.P)
				res.EdgesAdded++
				touch(from)
				touch(to)
			}
		case OpSetEdgeQ:
			from, _ := g.Lookup(op.From.Kind, op.From.Label)
			to, _ := g.Lookup(op.To.Kind, op.To.Label)
			eid, _ := g.findEdge(from, to, op.Rel)
			if g.edges[eid].Q != op.P {
				g.SetEdgeQ(eid, op.P)
				res.ProbChanges++
				touch(from)
				touch(to)
			} else {
				res.NoOps++
			}
		}
	}

	if g.sourceEpochs == nil {
		g.sourceEpochs = map[string]uint64{}
	}
	g.sourceEpochs[d.Source]++
	res.Epoch = g.sourceEpochs[d.Source]
	res.Version = g.version
	res.ProbOnly = res.NodesAdded == 0 && res.EdgesAdded == 0
	res.Affected = make([]NodeID, 0, len(affected))
	for id := range affected {
		res.Affected = append(res.Affected, id)
	}
	sortNodeIDs(res.Affected)
	return res
}

func sortNodeIDs(ids []NodeID) {
	// Insertion sort: affected sets are tiny (a handful of nodes per
	// delta) and this avoids the sort.Slice closure allocation on the
	// ingest hot path.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
