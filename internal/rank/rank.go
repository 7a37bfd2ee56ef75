// Package rank implements the five relevance functions of Section 3 of
// the paper — the primary contribution of BioRank. Three are
// probabilistic:
//
//   - Reliability: source-target network reliability with node failures,
//     estimated by Monte Carlo simulation (Algorithm 3.1), accelerated by
//     graph reductions (Section 3.1.2), and computed exactly in closed
//     form when the query graph is reducible (Section 3.1.3 / Theorem
//     3.2), with an exact factoring solver as general fallback.
//   - Propagation: the local, PageRank-like semantics of Algorithm 3.2.
//   - Diffusion: the additive evidence-accumulation semantics of
//     Algorithm 3.3.
//
// Two are deterministic benchmarks from prior work (Lacroix et al.):
//
//   - InEdge: the number of edges entering an answer node.
//   - PathCount: the number of distinct paths from the query node to an
//     answer node (DAGs only).
package rank

import (
	"context"
	"fmt"

	"biorank/internal/graph"
	"biorank/internal/kernel"
)

// Result holds the relevance scores a ranking method assigns to the
// answer set of a query graph. Scores[i] scores qg.Answers[i]; larger is
// more relevant.
type Result struct {
	Method string
	Scores []float64

	// Lo and Hi, when non-nil, bound answer i's true score from below
	// and above at the estimator's confidence level: the racer reports
	// its elimination intervals, the hybrid planner reports Wilson
	// intervals for Monte Carlo answers, and exact evaluation
	// reports zero-width intervals (Lo[i] == Hi[i] == Scores[i]).
	// Methods without uncertainty quantification leave both nil.
	Lo, Hi []float64
	// Exact, when non-nil, marks answers whose score is exact rather
	// than estimated. Exact[i] implies Lo[i] == Hi[i] == Scores[i].
	Exact []bool
	// Truncated reports that the estimator stopped early because its
	// context was cancelled or its deadline expired. The scores are then
	// the best estimates computable from the trials that DID run — the
	// anytime tallies — with Lo/Hi holding valid (if wide) confidence
	// intervals, vacuous [0,1] in the worst case of zero trials. A
	// truncated result is an answer, not an error, but it is specific to
	// the deadline that produced it: callers must not memoize it.
	Truncated bool
}

// Ranker is a relevance function r: A → R over a probabilistic query
// graph (Definition 2.4).
type Ranker interface {
	// Name returns a short stable identifier ("reliability",
	// "propagation", "diffusion", "inedge", "pathcount").
	Name() string
	// RankCtx scores every node in qg.Answers. The Monte Carlo
	// estimators check ctx at their batch boundaries (never inside
	// kernel inner loops) and, when it expires mid-run, return the
	// partial result computed so far with Result.Truncated set instead
	// of an error; an uncancellable ctx runs the one-call path. The
	// deterministic methods finish in microseconds and ignore ctx.
	RankCtx(ctx context.Context, qg *graph.QueryGraph) (Result, error)
}

// Methods returns the paper's five ranking methods with the default
// configurations used throughout the evaluation section: reliability via
// traversal Monte Carlo with the given number of trials and seed, and the
// other four methods parameter-free.
func Methods(trials int, seed uint64) []Ranker {
	return []Ranker{
		&MonteCarlo{Trials: trials, Seed: seed},
		&Propagation{},
		&Diffusion{},
		InEdge{},
		PathCount{},
	}
}

// pickScores extracts per-answer scores from a dense per-node score
// vector.
func pickScores(qg *graph.QueryGraph, perNode []float64) []float64 {
	out := make([]float64, len(qg.Answers))
	for i, a := range qg.Answers {
		out[i] = perNode[a]
	}
	return out
}

// validate rejects query graphs that no ranker can score.
func validate(qg *graph.QueryGraph) error {
	if qg == nil || qg.Graph == nil {
		return fmt.Errorf("rank: nil query graph")
	}
	if qg.NumNodes() == 0 {
		return fmt.Errorf("rank: empty graph")
	}
	return nil
}

// planFor returns the plan a ranker runs on: explicit when it was
// compiled for qg (a RankSpecs pass's shared plan, or the engine's plan
// cache), otherwise qg's own memoized plan (kernel.PlanOf).
func planFor(qg *graph.QueryGraph, explicit *kernel.Plan) *kernel.Plan {
	if explicit != nil && explicit.Matches(qg) {
		return explicit
	}
	return kernel.PlanOf(qg)
}
