package biorank

import (
	"fmt"
	"sort"

	"biorank/internal/graph"
	"biorank/internal/mediator"
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
// graph layer's delta.
func (d IngestDelta) toGraphDelta() (graph.Delta, error) {
	out := graph.Delta{Source: d.Source, Ops: make([]graph.Op, len(d.Ops))}
	for i, op := range d.Ops {
		kind, ok := graph.ParseOpKind(op.Op)
		if !ok {
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
type LiveStats = graph.StoreStats

// ErrNotLive is returned by Ingest when EnableLive was never called.
var ErrNotLive = fmt.Errorf("biorank: system is not live; call EnableLive first")

// liveState is the immutable handle published by EnableLive: the
// mediator's keyword core (the mutable store plus the keyword↔accession
// index scoped invalidation runs on) and, in durable mode, the WAL. The
// struct itself never changes after publication; all mutability lives
// inside the store.
type liveState struct {
	*mediator.Live
	// dur is non-nil when the store writes ahead to a WAL (durability.go).
	dur *durable
}

// EnableLive switches the system to live mode: the mediator integrates
// the union neighborhood of every known protein once, the result becomes
// a mutable graph.Store, and from then on Query and QueryBatchCtx resolve
// against live snapshots of that store instead of re-integrating from
// the sources. Ingest then applies source deltas to the store with
// scoped cache invalidation. Query graphs memoized before the switch are
// dropped, so each protein is carved afresh on its first query in live
// mode.
//
// Like ConfigureEngine, EnableLive must precede the engine's lazy start
// (the first QueryBatchCtx or stats call); flipping the resolver under a
// running engine would mix world states within one batch.
func (s *System) EnableLive() error {
	_, err := s.goLive("EnableLive", func() (*graph.Store, *durable, error) {
		g, err := s.med.IntegrateAll(s.Proteins())
		if err != nil {
			return nil, nil, err
		}
		return graph.NewStore(g), nil, nil
	})
	return err
}

// goLive is the one path into live mode, shared by EnableLive and
// EnableLiveDurable: check that neither the engine nor live mode has
// started, build the store, index its keywords and publish it. name is
// the caller's, for the error message.
func (s *System) goLive(name string, build func() (*graph.Store, *durable, error)) (*liveState, error) {
	s.engMu.Lock()
	defer s.engMu.Unlock()
	if s.engStarted {
		return nil, fmt.Errorf("biorank: engine already started; %s must precede the first QueryBatchCtx", name)
	}
	if s.live.Load() != nil {
		return nil, fmt.Errorf("biorank: system is already live")
	}
	store, dur, err := build()
	if err != nil {
		return nil, err
	}
	ls := &liveState{Live: s.med.Live(store, s.Proteins()), dur: dur}
	s.live.Store(ls)
	// Graphs resolved before now came from the mediator, and a carve may
	// hold the same content in another node order, which samples another
	// Monte Carlo stream; a durable store may hold other content outright.
	s.graphs.drop(s.Proteins())
	return ls, nil
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
// memoized query graphs and result-cache entries are dropped. Every
// other keyword keeps its graph and serves hits, and probability-only
// batches let the next query patch its compiled plan instead of
// recompiling. A memoized graph is not re-read from the store, so it
// is as fresh as this scoping is complete: once Ingest returns, a query
// for an affected keyword carves the graph anew.
//
// Keywords match case-insensitively, but Ingest names the affected
// keywords in their canonical spelling (Proteins): results cached under
// another spelling ("abcc8" for ABCC8) are reclaimed by LRU eviction,
// not by Ingest. Only canonical spellings are memoized, and the
// content-fingerprint keys of the others keep them from ever being
// served stale.
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
		res, err := ls.Store.Apply(gd)
		if err != nil {
			return s.finishIngest(ls, out, affected), fmt.Errorf("biorank: ingest %q: %w", d.Source, err)
		}
		out.Deltas++
		out.NodesAdded += res.NodesAdded
		out.EdgesAdded += res.EdgesAdded
		out.ProbChanges += res.ProbChanges
		out.ProbOnly = out.ProbOnly && res.ProbOnly
		out.Version = res.Version
		for _, kw := range ls.Affected(res.Affected) {
			affected[kw] = true
		}
	}
	res := s.finishIngest(ls, out, affected)
	// Automatic checkpoint policy (durable live mode only): runs after
	// the batches are applied and acknowledged, so a checkpoint failure
	// can never un-acknowledge an ingest.
	s.maybeCheckpoint(ls)
	return res, nil
}

// finishIngest folds the affected-keyword set into the result, drops
// those keywords' memoized query graphs, and reclaims the engine's
// stranded cache entries (when it has started).
func (s *System) finishIngest(ls *liveState, out IngestResult, affected map[string]bool) IngestResult {
	for kw := range affected {
		out.AffectedSources = append(out.AffectedSources, kw)
	}
	sort.Strings(out.AffectedSources)
	if len(out.AffectedSources) > 0 {
		s.graphs.drop(out.AffectedSources)
	}
	s.engMu.Lock()
	started := s.engStarted
	s.engMu.Unlock()
	if started && len(out.AffectedSources) > 0 {
		out.Invalidated = s.engineHandle().InvalidateSources(out.AffectedSources)
	}
	out.Epochs = ls.Store.Stat().Epochs
	return out
}

// LiveStats snapshots the live store's counters; ok is false when the
// system is not live.
func (s *System) LiveStats() (stats LiveStats, ok bool) {
	ls := s.live.Load()
	if ls == nil {
		return LiveStats{}, false
	}
	return ls.Store.Stat(), true
}
