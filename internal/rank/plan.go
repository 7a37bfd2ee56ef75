package rank

import (
	"sync/atomic"

	"biorank/internal/graph"
	"biorank/internal/kernel"
)

// PlanMemo caches the last compiled kernel.Plan of a ranker (or of the
// facade's Answers) so repeated Rank calls on the same (unmutated) query
// graph skip recompilation.
// Identity is the graph pointer plus its mutation Version: mutating a
// probability bumps the version and forces a fresh compile, while a
// different graph object never matches even if structurally equal.
// The memo is safe for concurrent use (a lost race just compiles twice).
type PlanMemo struct {
	p atomic.Pointer[planEntry]
}

type planEntry struct {
	qg      *graph.QueryGraph
	version uint64
	plan    *kernel.Plan
}

// For returns a plan usable with qg: the explicit plan when it matches
// (the caller-supplied shared plan of a RankAll pass or the engine's
// plan cache), otherwise the memoized or freshly compiled one.
func (m *PlanMemo) For(qg *graph.QueryGraph, explicit *kernel.Plan) *kernel.Plan {
	if explicit != nil && explicit.Matches(qg) {
		return explicit
	}
	if e := m.p.Load(); e != nil && e.qg == qg && e.version == qg.Version() {
		return e.plan
	}
	plan := kernel.Compile(qg)
	m.p.Store(&planEntry{qg: qg, version: qg.Version(), plan: plan})
	return plan
}

// opsFromSim converts kernel operation counters to OpStats.
func opsFromSim(so kernel.SimOps) OpStats {
	return OpStats{Trials: so.Trials, NodeVisits: so.NodeVisits, CoinFlips: so.CoinFlips}
}
