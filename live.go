package biorank

import (
	"fmt"
	"sort"

	"biorank/internal/graph"
	"biorank/internal/mediator"
	"biorank/internal/query"
)

// This file implements the facade's live mode: instead of re-integrating
// a keyword's neighborhood from the sources on every query, EnableLive
// materializes ONE union entity graph covering every known protein into a
// mutable graph.Store, and queries carve their pruned query graphs out of
// live snapshots of it. Source updates then arrive as structured deltas
// (Ingest) rather than world rebuilds: probability revisions patch
// compiled plans in place, and cache invalidation is scoped to the query
// keywords whose answer sets can actually reach an affected record.

// IngestRef addresses a record by (entity set, label) — the portable
// node reference of a delta, resolved against the live graph at apply
// time.
type IngestRef struct {
	Kind  string `json:"kind"`
	Label string `json:"label"`
}

// IngestOp is one mutation inside an ingest batch. Op selects the
// mutation kind:
//
//   - "upsert-node": ensure Node exists with probability P (a no-op when
//     it already has that probability, a probability revision otherwise);
//   - "upsert-edge": ensure the From→To edge labeled Rel exists with
//     correctness probability P (endpoints may be created earlier in the
//     same batch);
//   - "set-node-p": revise an existing record's presence probability;
//   - "set-edge-q": revise an existing link's correctness probability.
type IngestOp struct {
	Op   string    `json:"op"`
	Node IngestRef `json:"node,omitzero"`
	From IngestRef `json:"from,omitzero"`
	To   IngestRef `json:"to,omitzero"`
	Rel  string    `json:"rel,omitempty"`
	P    float64   `json:"p"`
}

// IngestDelta is one source's batch of mutations, applied atomically:
// either every op validates and the batch commits, or the graph is
// untouched.
type IngestDelta struct {
	Source string     `json:"source"`
	Ops    []IngestOp `json:"ops"`
}

// toGraphDelta translates the JSON-friendly representation into the
// graph layer's mutation log entry.
func (d IngestDelta) toGraphDelta() (graph.Delta, error) {
	out := graph.Delta{Source: d.Source, Ops: make([]graph.Op, len(d.Ops))}
	for i, op := range d.Ops {
		var kind graph.OpKind
		switch op.Op {
		case "upsert-node":
			kind = graph.OpUpsertNode
		case "upsert-edge":
			kind = graph.OpUpsertEdge
		case "set-node-p":
			kind = graph.OpSetNodeP
		case "set-edge-q":
			kind = graph.OpSetEdgeQ
		default:
			return graph.Delta{}, fmt.Errorf("biorank: unknown ingest op %q (want upsert-node, upsert-edge, set-node-p or set-edge-q)", op.Op)
		}
		out.Ops[i] = graph.Op{
			Kind: kind,
			Node: graph.NodeRef(op.Node),
			From: graph.NodeRef(op.From),
			To:   graph.NodeRef(op.To),
			Rel:  op.Rel,
			P:    op.P,
		}
	}
	return out, nil
}

// IngestResult summarizes one Ingest call.
type IngestResult struct {
	// Deltas is the number of delta batches applied.
	Deltas int `json:"deltas"`
	// NodesAdded/EdgesAdded/ProbChanges aggregate the structural effect.
	NodesAdded  int `json:"nodesAdded"`
	EdgesAdded  int `json:"edgesAdded"`
	ProbChanges int `json:"probChanges"`
	// ProbOnly reports that no batch changed the graph's topology, so
	// every affected query's plan is patchable rather than recompiled.
	ProbOnly bool `json:"probOnly"`
	// Version is the live graph's mutation counter after the last batch.
	Version uint64 `json:"version"`
	// AffectedSources lists the query keywords whose cached results were
	// scoped out by the batches (sorted).
	AffectedSources []string `json:"affectedSources,omitempty"`
	// Invalidated counts result-cache entries reclaimed by scoped
	// invalidation (0 when the engine has not started or nothing matched).
	Invalidated int `json:"invalidated"`
	// Epochs snapshots the per-source ingestion epochs after the call.
	Epochs map[string]uint64 `json:"epochs,omitempty"`
}

// LiveStats reports the live store's state.
type LiveStats struct {
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

// ErrNotLive is returned by Ingest when EnableLive was never called.
var ErrNotLive = fmt.Errorf("biorank: system is not live; call EnableLive first")

// liveState is the immutable handle published by EnableLive: the mutable
// store plus the keyword↔accession index scoped invalidation runs on.
// The struct itself never changes after publication; all mutability lives
// inside the store.
type liveState struct {
	store *graph.Store
	// keywordAccessions maps a query keyword to the protein accession set
	// its exploratory query selects in the union graph.
	keywordAccessions map[string]map[string]bool
	// accessionKeywords inverts it: the keywords whose answer sets depend
	// on a protein accession.
	accessionKeywords map[string][]string
	// dur is non-nil when the store writes ahead to a WAL (durability.go).
	dur *durable
}

// resolve carves the keyword's pruned query graph out of a live snapshot
// of the union graph: under the store's read lock the exploratory query
// clones the graph, selects the keyword's accessions as input records,
// and prunes to the answer-directed subgraph.
func (ls *liveState) resolve(keyword string) (*graph.QueryGraph, error) {
	accs := ls.keywordAccessions[keyword]
	if len(accs) == 0 {
		return nil, fmt.Errorf("biorank: no protein matches %q", keyword)
	}
	var (
		qg  *graph.QueryGraph
		err error
	)
	ls.store.View(func(g *graph.Graph) {
		q := query.Exploratory{
			InputKind:   mediator.KindProtein,
			Match:       func(n graph.Node) bool { return accs[n.Label] },
			OutputKinds: []string{mediator.KindFunction},
			Keyword:     keyword,
		}
		qg, err = q.Run(g)
	})
	return qg, err
}

// EnableLive switches the system to live mode: the mediator integrates
// the union neighborhood of every known protein once, the result becomes
// a mutable graph.Store, and from then on Query and QueryBatch resolve
// against live snapshots of that store instead of re-integrating from
// the sources. Ingest then applies source deltas to the store with
// scoped cache invalidation.
//
// Like ConfigureEngine, EnableLive must precede the engine's lazy start
// (the first QueryBatch or stats call); flipping the resolver under a
// running engine would mix world states within one batch.
func (s *System) EnableLive() error {
	s.engMu.Lock()
	defer s.engMu.Unlock()
	if s.engStarted {
		return fmt.Errorf("biorank: engine already started; EnableLive must precede the first QueryBatch")
	}
	if s.live.Load() != nil {
		return fmt.Errorf("biorank: system is already live")
	}
	keywords := s.Proteins()
	g, err := s.med.IntegrateAll(keywords)
	if err != nil {
		return err
	}
	ls := &liveState{
		store:             graph.NewStore(g),
		keywordAccessions: make(map[string]map[string]bool, len(keywords)),
		accessionKeywords: make(map[string][]string),
	}
	s.indexKeywords(ls)
	s.live.Store(ls)
	return nil
}

// Live reports whether the system is in live mode.
func (s *System) Live() bool { return s.live.Load() != nil }

// Accessions returns the accession labels of the protein records a query
// keyword selects — the EntrezProtein node labels ingest deltas address.
func (s *System) Accessions(protein string) []string {
	return s.med.Accessions(protein)
}

// Ingest applies delta batches to the live graph and scopes cache
// invalidation to the affected queries: for each batch, the set of
// protein records that can reach a mutated node is mapped back to the
// query keywords selecting those proteins, and only those keywords'
// result-cache entries are dropped. Every other keyword keeps serving
// hits, and probability-only batches let the next query patch its
// compiled plan instead of recompiling.
//
// Batches apply in order and each batch is atomic, but the call is not:
// on a validation error the earlier batches stay applied and the result
// reflects them alongside the error.
func (s *System) Ingest(deltas ...IngestDelta) (IngestResult, error) {
	ls := s.live.Load()
	if ls == nil {
		return IngestResult{}, ErrNotLive
	}
	out := IngestResult{ProbOnly: true}
	affected := make(map[string]bool)
	for _, d := range deltas {
		gd, err := d.toGraphDelta()
		if err != nil {
			return s.finishIngest(ls, out, affected), err
		}
		res, err := ls.store.Apply(gd)
		if err != nil {
			return s.finishIngest(ls, out, affected), fmt.Errorf("biorank: ingest %q: %w", d.Source, err)
		}
		out.Deltas++
		out.NodesAdded += res.NodesAdded
		out.EdgesAdded += res.EdgesAdded
		out.ProbChanges += res.ProbChanges
		out.ProbOnly = out.ProbOnly && res.ProbOnly
		out.Version = res.Version
		// Affected protein records → the keywords that select them. A
		// record added by this very batch under an existing protein is
		// co-reachable from that protein's accession node, so new evidence
		// invalidates exactly the keywords it can influence.
		for _, acc := range ls.store.SourcesReaching(mediator.KindProtein, res.Affected) {
			for _, kw := range ls.accessionKeywords[acc] {
				affected[kw] = true
			}
		}
	}
	res := s.finishIngest(ls, out, affected)
	// Automatic checkpoint policy (durable live mode only): runs after
	// the batches are applied and acknowledged, so a checkpoint failure
	// can never un-acknowledge an ingest.
	s.maybeCheckpoint(ls)
	return res, nil
}

// finishIngest folds the affected-keyword set into the result and
// reclaims the engine's stranded cache entries (when it has started).
func (s *System) finishIngest(ls *liveState, out IngestResult, affected map[string]bool) IngestResult {
	for kw := range affected {
		out.AffectedSources = append(out.AffectedSources, kw)
	}
	sort.Strings(out.AffectedSources)
	s.engMu.Lock()
	started := s.engStarted
	s.engMu.Unlock()
	if started && len(out.AffectedSources) > 0 {
		out.Invalidated = s.engineHandle().InvalidateSources(out.AffectedSources)
	}
	out.Epochs = ls.store.Stat().Epochs
	return out
}

// LiveStats snapshots the live store's counters; ok is false when the
// system is not live.
func (s *System) LiveStats() (stats LiveStats, ok bool) {
	ls := s.live.Load()
	if ls == nil {
		return LiveStats{}, false
	}
	st := ls.store.Stat()
	return LiveStats{
		Nodes:          st.Nodes,
		Edges:          st.Edges,
		Version:        st.Version,
		Deltas:         st.Deltas,
		ProbOnlyDeltas: st.ProbOnlyDeltas,
		NodesAdded:     st.NodesAdded,
		EdgesAdded:     st.EdgesAdded,
		ProbChanges:    st.ProbChanges,
		Epochs:         st.Epochs,
	}, true
}
