package rank

import (
	"context"
	"fmt"
	"math"
	"sync"

	"biorank/internal/graph"
	"biorank/internal/kernel"
	"biorank/internal/prob"
)

// This file implements the reliability semantics of Section 3.1: the
// relevance r(t) of an answer node t is the probability, over random
// subgraphs in which each node i is present with probability p(i) and
// each edge e with probability q(e), that t is present and connected to
// the query node s. This coincides with the possible-worlds semantics of
// probabilistic databases. Exact evaluation is #P-hard (Valiant 1979);
// the paper proposes Monte Carlo simulation (Algorithm 3.1), graph
// reductions, and a closed solution for reducible graphs.
//
// The simulations themselves run on internal/kernel's compiled CSR
// plans: the query graph is flattened once into contiguous arrays and
// the per-trial inner loops execute over those, drawing working memory
// from pooled scratch arenas. The kernels preserve the historical RNG
// stream and operation counters exactly, so scores and OpStats are
// bit-identical to the pre-kernel implementation for a fixed seed.

// MonteCarlo estimates reliability scores by simulation.
//
// With Naive unset it implements the improved "traversal" simulation of
// Algorithm 3.1: a depth-first search from the source that only flips
// presence coins for nodes and edges that are actually reached, skipping
// entire subgraphs cut off by earlier failures. With Naive set it flips
// every coin up front and then tests connectivity — the baseline the
// paper reports a 3.4x speedup against.
//
// Note on Algorithm 3.1 as printed: the pseudocode's indentation suggests
// out-edges are explored even when the node's own presence coin fails,
// which would contradict the generalized source-target reliability
// semantics with node failures that Section 3.1 defines. We implement the
// semantically correct version (a failed node cuts the paths through it)
// and verify it against an exact solver; see DESIGN.md.
type MonteCarlo struct {
	Trials int    // number of simulation trials; 0 means DefaultTrials
	Seed   uint64 // RNG seed; runs are deterministic given the seed
	Naive  bool   // use the naive all-coins estimator instead of Alg 3.1
	Reduce bool   // apply Section 3.1.2 reductions before simulating
	// Workers splits the trials over that many goroutines, each with an
	// independent RNG stream derived from Seed via prob.StreamSeed.
	// Results are deterministic for a fixed (Seed, Workers) pair; 0 or 1
	// runs serially. Only the traversal estimator parallelizes.
	Workers int
	// Worlds samples on the 256-world block kernel (see sampler):
	// Trials rounds UP to a multiple of kernel.WordSize. Statistically
	// equivalent to the scalar estimator, but on a different RNG stream,
	// so scores for a fixed seed are not bit-identical to it. Composes
	// with Workers (words are sharded); ignored under Naive.
	Worlds bool
	// Plan, when non-nil and structurally matching the query graph,
	// skips plan compilation — RankAllCtx and the engine share one compiled
	// plan across methods and requests this way. Ignored under Reduce
	// (the reduced graph needs its own plan).
	Plan *kernel.Plan

	memo PlanMemo
}

// DefaultTrials is the trial count the paper derives from Theorem 3.1 for
// ε=0.02 and 95% confidence ("10,000 trials should be enough").
const DefaultTrials = 10000

// OpStats counts the work a Monte Carlo simulation performs; it is the
// kernels' own counter type (see kernel.SimOps).
type OpStats = kernel.SimOps

// Name implements Ranker.
func (m *MonteCarlo) Name() string { return "reliability" }

// RankCtx implements Ranker: simulation runs in plan-sized chunks with
// a context check between chunks, and an expired deadline returns the
// tallies accumulated so far — scores over the trials that DID run,
// Wilson intervals at 95%, Result.Truncated set — instead of an error.
// An uncancellable ctx runs the budget as one kernel call. A run that
// completes is bit-identical under either: the chunking consumes the
// kernels' RNG streams exactly like a one-shot call. Unlike
// RankWithStatsCtx it skips operation counting entirely, which lets the
// kernel run its counter-free loop.
func (m *MonteCarlo) RankCtx(ctx context.Context, qg *graph.QueryGraph) (Result, error) {
	if err := validate(qg); err != nil {
		return Result{}, err
	}
	plan, mapping := m.samplePlan(qg)
	return m.simulate(ctx, plan, nil).result(m.Name(), mapping), nil
}

// RankWithStatsCtx ranks like RankCtx and additionally reports the
// operation counts of the underlying simulation (after reductions, if
// enabled).
func (m *MonteCarlo) RankWithStatsCtx(ctx context.Context, qg *graph.QueryGraph) (Result, OpStats, error) {
	if err := validate(qg); err != nil {
		return Result{}, OpStats{}, err
	}
	var ops OpStats
	plan, mapping := m.samplePlan(qg)
	res := m.simulate(ctx, plan, &ops).result(m.Name(), mapping)
	return res, ops, nil
}

// samplePlan returns the plan m samples and the mapping of its answers
// back onto qg's. Under Reduce that is the Section 3.1.2 reduced graph's
// own plan, with mapping[i] the reduced index of answer i (-1 if the
// reductions dropped it); otherwise the explicit or memoized full-graph
// plan and a nil mapping.
func (m *MonteCarlo) samplePlan(qg *graph.QueryGraph) (*kernel.Plan, []int) {
	if m.Reduce {
		red, _, mapping := ReduceAll(qg)
		return kernel.Compile(red), mapping
	}
	return m.memo.For(qg, m.Plan), nil
}

// simOutcome is what one simulation pass produced: the scores, and —
// when the context truncated the pass — the Wilson intervals of the
// partial tallies.
type simOutcome struct {
	scores    []float64
	lo, hi    []float64
	truncated bool
}

// newOutcome scores the reach counts of executed trials, attaching
// Wilson intervals when the pass was truncated.
func newOutcome(plan *kernel.Plan, counts []int64, executed int, truncated bool) simOutcome {
	out := simOutcome{scores: make([]float64, plan.NumAnswers()), truncated: truncated}
	if executed > 0 {
		plan.ScoresFromCounts(counts, executed, out.scores)
	}
	if truncated {
		out.lo, out.hi = wilsonTallyBounds(plan, counts, executed)
	}
	return out
}

// result maps the outcome onto qg's answers (mapping from
// MonteCarlo.samplePlan; nil for an outcome on qg's own plan).
func (o simOutcome) result(method string, mapping []int) Result {
	res := Result{Method: method, Scores: remap(mapping, o.scores), Truncated: o.truncated}
	if o.truncated {
		res.Lo, res.Hi = remap(mapping, o.lo), remap(mapping, o.hi)
	}
	return res
}

// remap carries per-answer values computed on a reduced graph back onto
// the original answer set (see MonteCarlo.samplePlan). Answers the
// reductions dropped are certainly unreachable, so their zero value is
// exact: score 0, the zero-width interval [0,0]. A nil mapping or a nil
// xs passes xs through.
func remap(mapping []int, xs []float64) []float64 {
	if mapping == nil || xs == nil {
		return xs
	}
	out := make([]float64, len(mapping))
	for i, j := range mapping {
		if j >= 0 {
			out[i] = xs[j]
		}
	}
	return out
}

// simulate runs the configured estimator on a compiled plan. ops may be
// nil, in which case the kernels skip counter bookkeeping.
func (m *MonteCarlo) simulate(ctx context.Context, plan *kernel.Plan, ops *OpStats) simOutcome {
	trials := m.Trials
	if trials <= 0 {
		trials = DefaultTrials
	}
	if m.Naive {
		// The all-coins baseline is a paper artifact, not a serving
		// estimator: honor a context that is already dead, otherwise run
		// it whole.
		if ctxErr(ctx) != nil {
			return newOutcome(plan, nil, 0, true)
		}
		out := simOutcome{scores: make([]float64, plan.NumAnswers())}
		plan.Naive(out.scores, trials, prob.NewRNG(m.Seed), ops)
		return out
	}
	counts := make([]int64, plan.NumNodes())
	var executed int
	var truncated bool
	if m.Workers > 1 {
		var sim OpStats
		executed, truncated, sim = parallelShardedMC(ctx, plan, trials, m.Seed, m.Workers, m.Worlds, counts)
		if ops != nil {
			ops.Add(sim)
		}
	} else {
		executed, truncated = newSampler(plan, prob.NewRNG(m.Seed), m.Worlds, ops).run(ctx, counts, trials)
	}
	return newOutcome(plan, counts, executed, truncated)
}

// parallelShardedMC splits the simulation over workers goroutines —
// each with a deterministic prob.StreamSeed stream and its own sampler —
// and merges the per-node reach counts into counts. The unit of division
// is the sampler's unit, so every shard simulates whole words; on
// truncation each shard stops at its own chunk boundary. Returns the
// total trials executed (a valid normalizer: every shard's counts cover
// exactly its executed trials), whether any shard truncated, and the
// merged op counters. A run that completes is deterministic for a fixed
// (seed, workers) pair regardless of chunking.
func parallelShardedMC(ctx context.Context, plan *kernel.Plan, trials int, seed uint64, workers int, worlds bool, counts []int64) (int, bool, kernel.SimOps) {
	unit := sampleUnit(worlds)
	units := (trials + unit - 1) / unit
	if workers > units {
		workers = units
	}
	shardCounts := make([][]int64, workers)
	shardDone := make([]int, workers)
	shardTrunc := make([]bool, workers)
	shardOps := make([]kernel.SimOps, workers)
	var wg sync.WaitGroup
	base := units / workers
	extra := units % workers
	for w := 0; w < workers; w++ {
		share := base
		if w < extra {
			share++
		}
		wg.Add(1)
		go func(w, share int) {
			defer wg.Done()
			// Distinct, deterministic stream per worker.
			rng := prob.NewRNG(prob.StreamSeed(seed, uint64(w)))
			c := make([]int64, plan.NumNodes())
			shardDone[w], shardTrunc[w] = newSampler(plan, rng, worlds, &shardOps[w]).run(ctx, c, share*unit)
			shardCounts[w] = c
		}(w, share)
	}
	wg.Wait()
	executed := 0
	truncated := false
	var ops kernel.SimOps
	for w := 0; w < workers; w++ {
		for i, v := range shardCounts[w] {
			counts[i] += v
		}
		executed += shardDone[w]
		truncated = truncated || shardTrunc[w]
		ops.Add(shardOps[w])
	}
	return executed, truncated, ops
}

// TrialBound returns the number of independent Monte Carlo trials that
// Theorem 3.1 proves sufficient to rank two nodes whose true reliability
// scores differ by eps correctly with probability at least 1-delta:
//
//	n ≥ (1+ε)³ / (ε²(1+ε/3)) · ln(1/δ)
//
// For ε=0.02 and δ=0.05 this yields 7,895, which is why the paper uses
// 10,000 trials.
func TrialBound(eps, delta float64) (int, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("rank: eps must be in (0,1), got %g", eps)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("rank: delta must be in (0,1), got %g", delta)
	}
	n := math.Pow(1+eps, 3) / (eps * eps * (1 + eps/3)) * math.Log(1/delta)
	return int(math.Ceil(n)), nil
}
