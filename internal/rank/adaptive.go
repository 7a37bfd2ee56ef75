package rank

import (
	"context"
	"fmt"
	"sort"

	"biorank/internal/graph"
	"biorank/internal/kernel"
	"biorank/internal/prob"
)

// AdaptiveMonteCarlo estimates reliability like MonteCarlo but chooses
// the trial count at run time using the criterion of Theorem 3.1: after
// each batch it inspects the gaps between adjacent answer scores and
// stops once every gap is either below Eps (an effective tie the caller
// does not need separated) or large enough that the bound certifies the
// observed ordering at confidence 1−Delta. With TopK set, only the
// order of the top K answers (and the boundary separating them from the
// rest) must stabilize — the tail may remain unresolved, which stops
// much earlier on graphs with many near-tied low scores. This is an
// extension beyond the paper, which picks the trial count a priori from
// the same theorem.
//
// Simulation batches run on the compiled traversal kernel
// (internal/kernel), so steady-state batches allocate nothing beyond
// the per-run accumulator.
type AdaptiveMonteCarlo struct {
	// Eps is the score separation worth distinguishing (default 0.02,
	// the paper's choice).
	Eps float64
	// Delta is the per-pair error probability (default 0.05).
	Delta float64
	// Batch is the number of trials per round (default 500).
	Batch int
	// MaxTrials caps the total (default 10·DefaultTrials); near-ties can
	// otherwise demand unbounded simulation.
	MaxTrials int
	// TopK restricts the stopping criterion to the order of the K
	// highest-scoring answers; 0 requires the full ranking to stabilize.
	TopK int
	// Seed makes runs reproducible.
	Seed uint64
	// Worlds samples on the 256-world block kernel (see sampler):
	// batches round UP to whole words and MaxTrials rounds DOWN to a
	// word multiple (minimum one word), so the reported trial count is
	// always a word multiple that honors the cap exactly. Statistically
	// equivalent to the scalar batches; the RNG stream differs.
	Worlds bool
	// Plan optionally supplies a pre-compiled kernel plan for the query
	// graph.
	Plan *kernel.Plan
}

// Name implements Ranker.
func (*AdaptiveMonteCarlo) Name() string { return "reliability" }

func (a *AdaptiveMonteCarlo) params() (eps, delta float64, batch, maxTrials int) {
	return seqDefaults(a.Eps, a.Delta, a.Batch, a.MaxTrials)
}

// RankCtx implements Ranker: the context is checked between adaptive
// batches, and an expired deadline returns the scores of the batches
// that DID run with Wilson intervals and Result.Truncated set — the
// stopping rule simply fires early.
func (a *AdaptiveMonteCarlo) RankCtx(ctx context.Context, qg *graph.QueryGraph) (Result, error) {
	res, _, err := a.RankWithStatsCtx(ctx, qg)
	return res, err
}

// RankWithStatsCtx ranks like RankCtx and reports operation counters;
// OpStats.Trials is the number of trials the stopping rule actually ran
// (compare DefaultTrials for the fixed a-priori budget).
func (a *AdaptiveMonteCarlo) RankWithStatsCtx(ctx context.Context, qg *graph.QueryGraph) (Result, OpStats, error) {
	if err := validate(qg); err != nil {
		return Result{}, OpStats{}, err
	}
	var ops OpStats
	res := a.simulate(ctx, planFor(qg, a.Plan), &ops).result(a.Name(), nil)
	return res, ops, nil
}

// simulate runs kernel batches until the stopping rule certifies the
// observed (top-K) order, MaxTrials is reached, or ctx expires — the
// last case marks the outcome truncated and attaches Wilson intervals
// over the trials that ran.
func (a *AdaptiveMonteCarlo) simulate(ctx context.Context, plan *kernel.Plan, ops *OpStats) simOutcome {
	eps, delta, batch, maxTrials := a.params()
	smp := newSampler(plan, prob.NewRNG(a.Seed), a.Worlds, ops)
	maxTrials = smp.capTrials(maxTrials)
	total := make([]int64, plan.NumNodes())
	sorted := make([]float64, plan.NumAnswers())
	scores := make([]float64, plan.NumAnswers())
	trials := 0
	truncated := false
	for trials < maxTrials {
		if ctxErr(ctx) != nil {
			truncated = true
			break
		}
		trials += smp.sample(total, nil, min(batch, maxTrials-trials))
		plan.ScoresFromCounts(total, trials, scores)
		if a.certified(scores, sorted, trials, eps, delta) {
			break
		}
	}
	return newOutcome(plan, total, trials, truncated)
}

// certified reports whether, at the current trial count, every adjacent
// score gap under inspection is either an effective tie (< eps) or
// certified by Theorem 3.1 for the achieved n. With TopK > 0 only the
// first TopK gaps are inspected: the gaps internal to the top K plus
// the boundary gap that separates rank K from rank K+1.
func (a *AdaptiveMonteCarlo) certified(scores, sorted []float64, trials int, eps, delta float64) bool {
	sorted = append(sorted[:0], scores...)
	sortFloatsDesc(sorted)
	last := len(sorted) - 1
	if a.TopK > 0 && a.TopK < last {
		last = a.TopK
	}
	for i := 1; i <= last; i++ {
		if !gapCertified(sorted[i-1]-sorted[i], trials, eps, delta) {
			return false
		}
	}
	return true
}

// gapCertified reports whether trials suffice, under Theorem 3.1, to
// certify the observed order of an adjacent score pair separated by gap:
// either the gap is an effective tie (< eps, not worth separating) or
// the achieved trial count reaches TrialBound(gap, delta). Shared by
// AdaptiveMonteCarlo's stopping rule and TopKRacer's pair-resolution
// check, so the edge cases (gap ≥ 1, tiny gaps) are handled once.
func gapCertified(gap float64, trials int, eps, delta float64) bool {
	if gap < eps {
		return true // effective tie
	}
	need, err := TrialBound(gap, delta)
	if err != nil {
		// gap ≥ 1 means one score is 1 and the other 0; any trial count
		// separates them.
		return true
	}
	return trials >= need
}

func sortFloatsDesc(xs []float64) {
	sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
}

// String describes the configuration, for logs.
func (a *AdaptiveMonteCarlo) String() string {
	eps, delta, batch, maxTrials := a.params()
	return fmt.Sprintf("adaptive-mc(eps=%g delta=%g batch=%d max=%d topk=%d worlds=%t)", eps, delta, batch, maxTrials, a.TopK, a.Worlds)
}
