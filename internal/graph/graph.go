// Package graph implements the probabilistic entity graph of Definition
// 2.1 of the paper: a labeled directed multigraph G = (N, E, p, q) where
// p assigns each node and q each edge a probability of being present.
//
// Nodes and edges are identified by dense integer IDs so that ranking
// algorithms can use flat slices for per-node state; this matters because
// the Monte Carlo reliability estimator visits every node thousands of
// times per query.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// NodeID identifies a node within a single Graph.
type NodeID int32

// EdgeID identifies an edge within a single Graph. Parallel edges between
// the same pair of nodes are permitted and receive distinct EdgeIDs.
type EdgeID int32

// Node is a data record in the integrated database. Kind names the entity
// set it belongs to (e.g. "EntrezGene"); Label is the record key.
type Node struct {
	ID    NodeID
	Kind  string
	Label string
	P     float64 // probability that the record is correct/present
}

// Edge is a relationship instance between two records. Kind names the
// relationship in the mediated schema (e.g. "NCBIBlast1").
type Edge struct {
	ID       EdgeID
	From, To NodeID
	Kind     string
	Q        float64 // probability that the link is correct/present
}

// labelKey is a node's identity in the label index. A struct key, unlike
// a "Kind/Label" concatenation, cannot make ("a/b", "c") and ("a", "b/c")
// collide, and building it allocates nothing.
type labelKey struct{ kind, label string }

// Graph is a probabilistic entity graph. The zero value is an empty graph
// ready for use.
type Graph struct {
	nodes []Node
	edges []Edge
	out   [][]EdgeID // outgoing edge IDs per node
	in    [][]EdgeID // incoming edge IDs per node

	// byLabel maps (Kind, Label) -> id. Unlike the rest of the struct —
	// which follows the usual contract of a single-goroutine build phase
	// followed by read-only serving — this index is built lazily by the
	// FIRST Lookup, which may happen on any of several concurrent server
	// handlers, so every byLabel access goes through labelMu. Once built
	// it is maintained in place: AddNode inserts the new node under the
	// write lock, so a build phase that interleaves Lookup with AddNode
	// (the mediator's dedup) stays linear. A graph that is never looked
	// up (clones, pruned query graphs) never builds one. AddNode itself
	// still belongs to the build phase: it mutates nodes/out/in without
	// synchronization and must not run concurrently with readers.
	labelMu sync.RWMutex
	byLabel map[labelKey]NodeID

	// version counts structural and probability mutations. Caches keyed
	// by (graph identity, version) are invalidated for free: a mutation
	// bumps the version, so stale entries can never be looked up again.
	version uint64

	// sourceEpochs counts applied deltas per source (see ApplyDelta).
	// Unlike version, an epoch advances even when a delta turns out to be
	// a no-op: it records ingestion progress, not content change.
	sourceEpochs map[string]uint64
}

// Version returns the graph's mutation counter. It starts at 0 and is
// bumped by AddNode, AddEdge, SetNodeP and SetEdgeQ. Clone preserves it.
func (g *Graph) Version() uint64 { return g.version }

// SetVersion overwrites the mutation counter: WAL recovery restores a
// checkpointed graph's version with it. Query-graph construction builds
// a fresh pruned copy whose counter reflects its own build steps, so a
// caller that wants the live graph's clock on a snapshot stamps it here.
func (g *Graph) SetVersion(v uint64) { g.version = v }

// SourceEpoch returns the number of deltas applied from the given source
// (0 if the source has never delivered one).
func (g *Graph) SourceEpoch(source string) uint64 { return g.sourceEpochs[source] }

// SourceEpochs returns a copy of the per-source epoch map.
func (g *Graph) SourceEpochs() map[string]uint64 {
	out := make(map[string]uint64, len(g.sourceEpochs))
	for k, v := range g.sourceEpochs {
		out[k] = v
	}
	return out
}

// SetSourceEpochs overwrites the per-source epoch map (copying it in).
// The graph codec does not serialize epochs — they are ingestion
// bookkeeping, not content — so checkpoint recovery restores them
// alongside SetVersion after decoding the graph.
func (g *Graph) SetSourceEpochs(epochs map[string]uint64) {
	g.sourceEpochs = make(map[string]uint64, len(epochs))
	for k, v := range epochs {
		g.sourceEpochs[k] = v
	}
}

// New returns an empty graph with capacity hints for n nodes and m edges.
func New(n, m int) *Graph {
	return &Graph{
		nodes: make([]Node, 0, n),
		edges: make([]Edge, 0, m),
		out:   make([][]EdgeID, 0, n),
		in:    make([][]EdgeID, 0, n),
	}
}

// AddNode appends a node and returns its ID. p is clamped to [0,1] by the
// caller's contract; out-of-range values panic to surface modeling bugs.
func (g *Graph) AddNode(kind, label string, p float64) NodeID {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: node %s/%s probability %g outside [0,1]", kind, label, p))
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Label: label, P: p})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.labelMu.Lock()
	if g.byLabel != nil {
		g.byLabel[labelKey{kind, label}] = id
	}
	g.labelMu.Unlock()
	g.version++
	return id
}

// AddEdge appends a directed edge and returns its ID.
func (g *Graph) AddEdge(from, to NodeID, kind string, q float64) EdgeID {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("graph: edge %d->%d probability %g outside [0,1]", from, to, q))
	}
	if !g.valid(from) || !g.valid(to) {
		panic(fmt.Sprintf("graph: edge endpoints %d->%d out of range", from, to))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Kind: kind, Q: q})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.version++
	return id
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.nodes) }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// SetNodeP updates a node probability.
func (g *Graph) SetNodeP(id NodeID, p float64) {
	if p < 0 || p > 1 {
		panic("graph: probability outside [0,1]")
	}
	g.nodes[id].P = p
	g.version++
}

// SetEdgeQ updates an edge probability.
func (g *Graph) SetEdgeQ(id EdgeID, q float64) {
	if q < 0 || q > 1 {
		panic("graph: probability outside [0,1]")
	}
	g.edges[id].Q = q
	g.version++
}

// Out returns the IDs of edges leaving n. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Out(n NodeID) []EdgeID { return g.out[n] }

// In returns the IDs of edges entering n. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) In(n NodeID) []EdgeID { return g.in[n] }

// OutDegree returns the number of edges leaving n.
func (g *Graph) OutDegree(n NodeID) int { return len(g.out[n]) }

// InDegree returns the number of edges entering n.
func (g *Graph) InDegree(n NodeID) int { return len(g.in[n]) }

// Lookup returns the ID of the node with the given kind and label (the
// last one added, should several share both). It is safe for concurrent
// use with other Lookups: the label index is built under the write lock
// by the first call, and every read of it holds the read lock, because
// AddNode inserts into a built index in place.
func (g *Graph) Lookup(kind, label string) (NodeID, bool) {
	k := labelKey{kind, label}
	g.labelMu.RLock()
	if g.byLabel != nil {
		id, ok := g.byLabel[k]
		g.labelMu.RUnlock()
		return id, ok
	}
	g.labelMu.RUnlock()
	g.labelMu.Lock()
	defer g.labelMu.Unlock()
	if g.byLabel == nil { // else lost the build race: another goroutine already did it
		g.byLabel = make(map[labelKey]NodeID, len(g.nodes))
		for _, n := range g.nodes {
			g.byLabel[labelKey{n.Kind, n.Label}] = n.ID
		}
	}
	id, ok := g.byLabel[k]
	return id, ok
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:   append([]Node(nil), g.nodes...),
		edges:   append([]Edge(nil), g.edges...),
		version: g.version,
		out:     make([][]EdgeID, len(g.out)),
		in:      make([][]EdgeID, len(g.in)),
	}
	for i := range g.out {
		c.out[i] = append([]EdgeID(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]EdgeID(nil), g.in[i]...)
	}
	if len(g.sourceEpochs) > 0 {
		c.sourceEpochs = make(map[string]uint64, len(g.sourceEpochs))
		for k, v := range g.sourceEpochs {
			c.sourceEpochs[k] = v
		}
	}
	return c
}

// Reachable returns, for every node, whether it is reachable from one
// of srcs following directed edges (ignoring probabilities). The sources
// themselves are reachable.
func (g *Graph) Reachable(srcs ...NodeID) []bool {
	return g.walk(srcs, nil, true)
}

// CoReachable returns, for every node, whether some node in targets is
// reachable from it (i.e. reverse reachability from the target set).
// within, when non-nil, confines the walk to the nodes it marks: only
// those targets and only paths through them count. For a within closed
// under successors, such as a Reachable result, that is exactly the
// co-reachable set intersected with within, found without visiting the
// rest of the graph.
func (g *Graph) CoReachable(targets []NodeID, within []bool) []bool {
	return g.walk(targets, within, false)
}

// walk marks every node reachable from seeds along out-edges (forward)
// or in-edges, stepping only onto nodes within marks when it is non-nil.
func (g *Graph) walk(seeds []NodeID, within []bool, forward bool) []bool {
	seen := make([]bool, len(g.nodes))
	stack := make([]NodeID, 0, len(seeds))
	visit := func(n NodeID) {
		if !seen[n] && (within == nil || within[n]) {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for _, n := range seeds {
		visit(n)
	}
	adj := g.in
	if forward {
		adj = g.out
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range adj[n] {
			if forward {
				visit(g.edges[eid].To)
			} else {
				visit(g.edges[eid].From)
			}
		}
	}
	return seen
}

// ErrCyclic is returned by TopoSort when the graph contains a directed
// cycle.
var ErrCyclic = errors.New("graph: contains a directed cycle")

// TopoSort returns the node IDs in a topological order, or ErrCyclic if
// the graph has a directed cycle. The order is deterministic (Kahn's
// algorithm with a FIFO frontier seeded in ID order).
func (g *Graph) TopoSort() ([]NodeID, error) {
	indeg := make([]int, len(g.nodes))
	for _, e := range g.edges {
		indeg[e.To]++
	}
	queue := make([]NodeID, 0, len(g.nodes))
	for i := range g.nodes {
		if indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	order := make([]NodeID, 0, len(g.nodes))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, eid := range g.out[n] {
			to := g.edges[eid].To
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, ErrCyclic
	}
	return order, nil
}

// IsDAG reports whether the graph is acyclic.
func (g *Graph) IsDAG() bool {
	_, err := g.TopoSort()
	return err == nil
}

// LongestPathFrom returns the length (in edges) of the longest simple path
// starting at src, assuming the graph is a DAG. It returns an error on
// cyclic graphs. This bounds the number of iterations the propagation
// algorithm needs to reach its fixpoint on DAGs (Section 3.2).
func (g *Graph) LongestPathFrom(src NodeID) (int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return 0, err
	}
	const unreached = -1
	dist := make([]int, len(g.nodes))
	for i := range dist {
		dist[i] = unreached
	}
	dist[src] = 0
	longest := 0
	for _, n := range order {
		if dist[n] == unreached {
			continue
		}
		for _, eid := range g.out[n] {
			to := g.edges[eid].To
			if d := dist[n] + 1; d > dist[to] {
				dist[to] = d
				if d > longest {
					longest = d
				}
			}
		}
	}
	return longest, nil
}

// InducedSubgraph returns the subgraph induced by the nodes for which
// keep is true, together with a mapping old→new node IDs (entries for
// dropped nodes are -1). Edges are kept iff both endpoints are kept, in
// edge-ID order. Only the kept nodes' out-edges are visited and the
// subgraph is sized to what it keeps, plus room for spareNodes nodes and
// spareEdges edges the caller adds afterwards, so carving a small
// subgraph out of a large graph costs one pass over keep plus the kept
// part.
func (g *Graph) InducedSubgraph(keep []bool, spareNodes, spareEdges int) (*Graph, []NodeID) {
	if len(keep) != len(g.nodes) {
		panic("graph: keep mask length mismatch")
	}
	remap := make([]NodeID, len(g.nodes))
	var kept []EdgeID
	nodes := 0
	for i, k := range keep {
		remap[i] = -1
		if k {
			remap[i] = NodeID(nodes)
			nodes++
			for _, eid := range g.out[i] {
				if keep[g.edges[eid].To] {
					kept = append(kept, eid)
				}
			}
		}
	}
	slices.Sort(kept)
	sub := New(nodes+spareNodes, len(kept)+spareEdges)
	for i, k := range keep {
		if k {
			n := g.nodes[i]
			sub.AddNode(n.Kind, n.Label, n.P)
		}
	}
	for _, eid := range kept {
		e := g.edges[eid]
		sub.AddEdge(remap[e.From], remap[e.To], e.Kind, e.Q)
	}
	return sub, remap
}

// DOT renders the graph in Graphviz DOT format, useful for debugging and
// for the documentation figures.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for _, n := range g.nodes {
		fmt.Fprintf(&b, "  n%d [label=\"%s/%s\\np=%.3f\"];\n", n.ID, n.Kind, n.Label, n.P)
	}
	for _, e := range g.edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%.3f\"];\n", e.From, e.To, e.Q)
	}
	b.WriteString("}\n")
	return b.String()
}

// Stats summarizes a graph for reporting.
type Stats struct {
	Nodes, Edges int
}

// Stat returns the graph's size statistics.
func (g *Graph) Stat() Stats { return Stats{Nodes: len(g.nodes), Edges: len(g.edges)} }

// NodesOfKind returns the IDs of all nodes of the given entity set, in ID
// order.
func (g *Graph) NodesOfKind(kind string) []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == kind {
			out = append(out, n.ID)
		}
	}
	return out
}

// Kinds returns the distinct node kinds in sorted order.
func (g *Graph) Kinds() []string {
	set := map[string]struct{}{}
	for _, n := range g.nodes {
		set[n.Kind] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
