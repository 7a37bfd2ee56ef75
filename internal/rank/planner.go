package rank

import (
	"context"
	"errors"
	"fmt"
	"math"

	"biorank/internal/graph"
	"biorank/internal/kernel"
)

// HybridPlanner is a per-candidate exact/Monte-Carlo reliability
// planner. For each answer it first runs a cheap reducibility probe —
// reify node failures and apply the Section 3.1.2 reductions to
// fixpoint, then spend at most ExactBudget conditioning steps of the
// factoring method. Answers whose subgraph fully reduces (the paper's
// Section 3.1.3 closed solution) or factors within the budget get their
// reliability exactly, for free relative to simulation; only the
// irreducible remainder is estimated by Monte Carlo. The exact answers
// are not merely skipped: they enter the top-k race as lo = hi point
// intervals, so they cost zero trials and prune Monte Carlo competitors
// from round one (an exact high scorer immediately raises the k-th
// lower bound every estimated candidate must beat).
//
// The exact probe is cheap because the evaluator is scratch-pooled
// (sync.Pool'd arenas, shared immutable metadata, in-place factoring on
// the present branch) and the budget caps the factoring recursion per
// answer; a probe that exhausts its budget has spent microseconds to
// learn the answer needs simulation.
//
// Results carry per-answer confidence intervals: zero-width for exact
// answers, Wilson (or Jeffreys, opt-in) score intervals for estimated
// ones, at confidence 1−Delta.
type HybridPlanner struct {
	// ExactBudget caps the factoring (conditioning) steps the probe may
	// spend per answer before routing it to Monte Carlo. 0 means
	// DefaultPlannerBudget; NoFactoring restricts the exact route to
	// pure closed-form answers (zero conditioning steps).
	ExactBudget int
	// K is the number of top answers the race must certify; values < 1
	// (or > the answer-set size) certify the full ranking.
	K int
	// Eps, Delta, Batch, MaxTrials and Seed parameterize the Monte
	// Carlo race exactly as in TopKRacer.
	Eps       float64
	Delta     float64
	Batch     int
	MaxTrials int
	Seed      uint64
	// Worlds runs the race's rounds on the block kernel, as in
	// TopKRacer.
	Worlds bool
	// Jeffreys reports Jeffreys instead of Wilson intervals for the
	// Monte Carlo answers.
	Jeffreys bool
	// Plan optionally supplies a pre-compiled kernel plan.
	Plan *kernel.Plan

	memo PlanMemo
}

// DefaultPlannerBudget is the per-answer conditioning budget of the
// hybrid planner's exact probe: enough to factor mildly irreducible
// subgraphs (a Wheatstone bridge needs a handful of steps), small
// enough that a hopeless probe costs microseconds.
const DefaultPlannerBudget = 64

// PlannerStats reports what a hybrid run did: the race telemetry for
// the Monte Carlo remainder, plus how many answers were routed exactly.
type PlannerStats struct {
	RaceStats
	// ExactAnswers counts answers solved exactly (closed form or within
	// the factoring budget); they carry zero trials in
	// TrialsPerCandidate.
	ExactAnswers int
	// ClosedFormAnswers counts the subset of ExactAnswers that fully
	// reduced with zero conditioning steps (Section 3.1.3).
	ClosedFormAnswers int
	// Conditionings totals the factoring steps spent by the probes,
	// including budget-exhausted probes of answers that went to Monte
	// Carlo.
	Conditionings int
}

// Name implements Ranker. The planner is a reliability estimator.
func (*HybridPlanner) Name() string { return "reliability" }

func (p *HybridPlanner) budget() int {
	switch {
	case p.ExactBudget == 0:
		return DefaultPlannerBudget
	case p.ExactBudget < 0:
		return NoFactoring
	default:
		return p.ExactBudget
	}
}

// RankCtx implements Ranker: the context is checked between
// per-answer exact probes and between racer rounds. On expiry the
// remaining unprobed answers route to the race, which immediately
// truncates — their intervals degrade to the vacuous [0,1] while
// already-probed exact answers keep their zero-width bounds.
func (p *HybridPlanner) RankCtx(ctx context.Context, qg *graph.QueryGraph) (Result, error) {
	res, _, err := p.RankWithStatsCtx(ctx, qg)
	return res, err
}

// RankWithStatsCtx ranks like RankCtx and reports the planner
// telemetry; truncation also marks PlannerStats.RaceStats.
func (p *HybridPlanner) RankWithStatsCtx(ctx context.Context, qg *graph.QueryGraph) (Result, PlannerStats, error) {
	if err := validate(qg); err != nil {
		return Result{}, PlannerStats{}, err
	}
	nA := len(qg.Answers)
	res := Result{Method: p.Name()}
	var ps PlannerStats
	budget := p.budget()

	// Probe phase: try every answer exactly under the (small) budget.
	exact := make([]bool, nA)
	var priors []exactPrior
	for i, t := range qg.Answers {
		if ctxErr(ctx) != nil {
			// Out of time mid-probe: the unprobed remainder joins the
			// Monte Carlo race, whose own ctx check will truncate it.
			break
		}
		v, steps, err := exactTarget(qg, t, budget)
		ps.Conditionings += steps
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				continue // irreducible within budget: Monte Carlo route
			}
			return Result{}, PlannerStats{}, fmt.Errorf("planner probe %s/%s: %w",
				qg.Node(t).Kind, qg.Node(t).Label, err)
		}
		exact[i] = true
		ps.ExactAnswers++
		if steps == 0 {
			ps.ClosedFormAnswers++
		}
		priors = append(priors, exactPrior{idx: i, score: v})
	}

	// Race phase: Monte Carlo the remainder, with the exact answers
	// seeded as zero-width intervals.
	k := p.K
	if k < 1 || k > nA {
		k = nA
	}
	racer := &TopKRacer{
		K:         k,
		Eps:       p.Eps,
		Delta:     p.Delta,
		Batch:     p.Batch,
		MaxTrials: p.MaxTrials,
		Seed:      p.Seed,
		Worlds:    p.Worlds,
	}
	plan := p.memo.For(qg, p.Plan)
	res.Scores = racer.raceWithPriors(ctx, plan, &ps.RaceStats, priors)
	res.Exact = exact
	res.Truncated = ps.RaceStats.Truncated

	// Reporting intervals: exact answers are their own bounds; Monte
	// Carlo answers get Wilson/Jeffreys intervals from their final
	// (successes, trials) tally at the race's confidence level.
	_, delta, _, _ := seqDefaults(p.Eps, p.Delta, p.Batch, p.MaxTrials)
	lo := make([]float64, nA)
	hi := make([]float64, nA)
	for i := range res.Scores {
		if exact[i] {
			lo[i], hi[i] = res.Scores[i], res.Scores[i]
			continue
		}
		n := ps.TrialsPerCandidate[i]
		s := int64(math.Round(res.Scores[i] * float64(n)))
		if p.Jeffreys {
			lo[i], hi[i] = JeffreysInterval(s, n, delta)
		} else {
			lo[i], hi[i] = WilsonInterval(s, n, delta)
		}
	}
	res.Lo, res.Hi = lo, hi
	return res, ps, nil
}
