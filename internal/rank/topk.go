package rank

import (
	"context"
	"fmt"
	"math"
	"sort"

	"biorank/internal/graph"
	"biorank/internal/kernel"
	"biorank/internal/prob"
)

// TopKRacer estimates reliability like AdaptiveMonteCarlo but races the
// answer candidates against each other with confidence-bound successive
// elimination, in the style of bound-based probabilistic top-k ranking
// (Bernecker et al., "Scalable Probabilistic Similarity Ranking in
// Uncertain Databases"): after each Monte Carlo batch every still-active
// candidate carries a confidence interval on its true reliability
// (the tighter of an empirical-Bernstein and a Hoeffding bound, union-
// bounded over candidates and rounds), and a candidate whose upper
// bound falls below the k-th largest lower bound is certifiably outside
// the top k and is dropped from the race. Elimination feeds back into
// the simulation itself: the compiled kernel then restricts its
// traversal to the subgraph that can still reach a surviving candidate
// (Plan.ReliabilityCounts with an ActiveMask), so pruned candidates
// cost nothing — the win over AdaptiveMonteCarlo, which simulates the
// whole query graph until its global stopping rule fires.
//
// The race stops once the top-k identity and internal order are
// resolved: every adjacent pair among the observed top k (plus the
// boundary pair separating rank k from rank k+1) is an effective tie
// (gap < Eps), has disjoint confidence intervals, or is certified by
// the same Theorem 3.1 trial bound AdaptiveMonteCarlo uses. The third
// clause makes the racer stop no later (in batches) than the adaptive
// estimator with TopK set; elimination makes each batch cheaper.
type TopKRacer struct {
	// K is the number of top answers whose identity and order must be
	// certified. Values < 1 or > the answer-set size are clamped.
	K int
	// Eps is the score separation worth distinguishing (default 0.02).
	Eps float64
	// Delta is the total failure probability budget shared by all
	// confidence intervals via a union bound (default 0.05).
	Delta float64
	// Batch is the number of trials per round (default 500).
	Batch int
	// MaxTrials caps the per-candidate trial count (default
	// 10·DefaultTrials).
	MaxTrials int
	// Seed makes runs reproducible: the elimination schedule is a
	// deterministic function of (graph, seed, parameters).
	Seed uint64
	// Worlds samples on the 256-world block kernel (see sampler). Its
	// rounds are shared-sample: one masked block traversal feeds EVERY
	// surviving candidate's counter, so all active candidates are judged
	// against the same sampled worlds and elimination decisions carry no
	// cross-candidate sampling variance. Batches round UP to whole words
	// and MaxTrials rounds DOWN to a word multiple (minimum one word), so
	// the cap is never exceeded. The elimination schedule is still
	// deterministic for a fixed seed, but differs from the scalar
	// racer's (different RNG stream).
	Worlds bool
	// Plan optionally supplies a pre-compiled kernel plan for the query
	// graph.
	Plan *kernel.Plan

	memo PlanMemo
}

// RaceStats reports what a top-k race did, beyond the shared OpStats
// counters: how many trials each candidate consumed before it was
// retired (or the race ended), the final confidence bounds, and the
// prune events.
type RaceStats struct {
	OpStats
	// TrialsPerCandidate[i] is the number of Monte Carlo trials answer i
	// participated in; pruned candidates freeze at their elimination
	// round.
	TrialsPerCandidate []int64
	// Lo and Hi are the per-answer confidence bounds at the end of the
	// race (frozen at elimination for pruned candidates).
	Lo, Hi []float64
	// Pruned counts candidates eliminated before the race ended.
	Pruned int
	// Rounds counts simulation batches run.
	Rounds int
	// Truncated reports that the race stopped at a round boundary
	// because its context was cancelled or its deadline expired, before
	// the top-k order was resolved or MaxTrials reached. The scores and
	// Lo/Hi bounds of the rounds that ran remain valid; candidates the
	// deadline caught before their first round carry the vacuous [0,1].
	Truncated bool
}

// CandidateTrials returns the summed per-candidate trial count — the
// racer's cost metric for comparison against estimators that simulate
// every candidate in every trial (fixed-budget and adaptive Monte Carlo
// cost trials × candidates by this metric).
func (rs RaceStats) CandidateTrials() int64 {
	var total int64
	for _, n := range rs.TrialsPerCandidate {
		total += n
	}
	return total
}

// Name implements Ranker.
func (*TopKRacer) Name() string { return "reliability" }

func (r *TopKRacer) params(numAnswers int) (k int, eps, delta float64, batch, maxTrials int) {
	k = min(max(r.K, 1), numAnswers)
	eps, delta, batch, maxTrials = seqDefaults(r.Eps, r.Delta, r.Batch, r.MaxTrials)
	return k, eps, delta, batch, maxTrials
}

// RankCtx implements Ranker: the context is checked between racer
// rounds, and an expired deadline ends the race early with the
// interval state of the rounds that ran (Result.Truncated set). Scores
// outside the certified top k are the candidates' estimates at the
// round they were eliminated — honest but coarser than the survivors'.
func (r *TopKRacer) RankCtx(ctx context.Context, qg *graph.QueryGraph) (Result, error) {
	res, _, err := r.RankWithStatsCtx(ctx, qg)
	return res, err
}

// RankWithStatsCtx ranks like RankCtx and reports the race telemetry
// in the PlannerStats shape HybridPlanner shares (ExactAnswers stays
// 0), so callers can run either race estimator through one method.
// Truncation marks RaceStats.Truncated as well as Result.Truncated.
func (r *TopKRacer) RankWithStatsCtx(ctx context.Context, qg *graph.QueryGraph) (Result, PlannerStats, error) {
	if err := validate(qg); err != nil {
		return Result{}, PlannerStats{}, err
	}
	var ps PlannerStats
	rs := &ps.RaceStats
	scores := r.raceWithPriors(ctx, r.memo.For(qg, r.Plan), rs, nil)
	res := Result{Method: r.Name(), Scores: scores, Lo: rs.Lo, Hi: rs.Hi, Truncated: rs.Truncated}
	return res, ps, nil
}

// exactPrior seeds a race with an answer whose reliability is already
// known exactly (the hybrid planner's closed-form or factored answers):
// the candidate enters with the zero-width interval [score, score],
// never simulates a trial, and prunes Monte Carlo competitors through
// the shared k-th lower bound from round one.
type exactPrior struct {
	idx   int
	score float64
}

// raceWithPriors runs the successive-elimination loop on a compiled
// plan and returns the per-answer score estimates. priors are
// candidates pre-resolved exactly: they keep TrialsPerCandidate 0 and
// Lo = Hi = score, are excluded from the simulation mask, but
// participate in elimination and in the top-k stopping rule.
func (r *TopKRacer) raceWithPriors(ctx context.Context, plan *kernel.Plan, rs *RaceStats, priors []exactPrior) []float64 {
	nA := plan.NumAnswers()
	scores := make([]float64, nA)
	rs.TrialsPerCandidate = make([]int64, nA)
	rs.Lo = make([]float64, nA)
	rs.Hi = make([]float64, nA)
	if nA == 0 {
		return scores
	}
	k, eps, delta, batch, maxTrials := r.params(nA)
	smp := newSampler(plan, prob.NewRNG(r.Seed), r.Worlds, &rs.OpStats)
	maxTrials = smp.capTrials(maxTrials)
	rounds := (maxTrials + batch - 1) / batch
	// Union bound: every (candidate, round) interval must hold
	// simultaneously for eliminations to be sound, so each individual
	// interval runs at delta / (candidates · rounds).
	deltaEach := delta / (float64(nA) * float64(rounds))

	counts := make([]int64, plan.NumNodes())
	lo, hi := rs.Lo, rs.Hi
	exact := make([]bool, nA)
	for _, p := range priors {
		exact[p.idx] = true
		scores[p.idx] = p.score
		lo[p.idx], hi[p.idx] = p.score, p.score
	}
	active := make([]bool, nA)
	activeIdx := make([]int, 0, nA)
	for i := range active {
		if exact[i] {
			continue
		}
		active[i] = true
		activeIdx = append(activeIdx, i)
		// Before its first round a candidate's reliability is only known
		// to lie in [0,1]; start with that vacuous bound so a deadline
		// that fires before round one still reports valid intervals
		// (Lo ≤ score ≤ Hi) rather than an impossible [0,0] around an
		// unknown score.
		hi[i] = 1
	}
	if len(activeIdx) == 0 {
		return scores // every candidate arrived exact; nothing to race
	}
	mask := make([]bool, plan.NumNodes())
	plan.ActiveMask(activeIdx, mask)
	order := make([]int, nA)
	loSorted := make([]float64, nA)

	trials := 0
	for trials < maxTrials {
		if ctxErr(ctx) != nil {
			// Deadline at a round boundary: every interval written so far
			// still holds (the union bound budgeted for more rounds than
			// ran, which only widens them), so the race state IS the
			// partial result.
			rs.Truncated = true
			break
		}
		trials += smp.sample(counts, mask, min(batch, maxTrials-trials))
		rs.Rounds++

		for _, i := range activeIdx {
			m := float64(counts[plan.AnswerNode(i)]) / float64(trials)
			rad := confRadius(m, trials, deltaEach)
			scores[i] = m
			lo[i] = math.Max(0, m-rad)
			hi[i] = math.Min(1, m+rad)
			rs.TrialsPerCandidate[i] = int64(trials)
		}

		// Eliminate every active candidate whose upper bound sits below
		// the k-th largest lower bound: with all intervals holding, it
		// cannot be in the top k. A candidate owning one of the k largest
		// lower bounds can never match (its hi ≥ its lo ≥ kthLB), so the
		// active set cannot shrink below k.
		copy(loSorted, lo)
		sortFloatsDesc(loSorted)
		kthLB := loSorted[k-1]
		pruned := false
		for _, i := range activeIdx {
			if hi[i] < kthLB {
				active[i] = false
				rs.Pruned++
				pruned = true
			}
		}
		if pruned {
			activeIdx = activeIdx[:0]
			for i := range active {
				if active[i] {
					activeIdx = append(activeIdx, i)
				}
			}
			if len(activeIdx) == 0 {
				break // every surviving contender is exact; nothing to simulate
			}
			// Shrink the simulated subgraph to the survivors' closure.
			plan.ActiveMask(activeIdx, mask)
		}
		if topKResolved(order, scores, lo, hi, rs.TrialsPerCandidate, exact, k, eps, delta) {
			break
		}
	}
	return scores
}

// topKResolved reports whether the observed top-k identity and internal
// order are settled: for every adjacent pair among the top k by current
// estimate — including the boundary pair (rank k, rank k+1) — the pair
// is an effective tie, has disjoint confidence intervals, or is
// certified by the shared Theorem 3.1 trial bound. The certificate uses
// the SMALLER of the pair's MONTE CARLO trial counts: a pruned
// candidate's estimate is frozen at its elimination round, and
// certifying against the survivors' larger count would claim a
// confidence the frozen estimate never earned. An exact member (a
// planner-seeded prior with a zero-width interval) contributes no
// sampling error and so needs no trials — the certificate is earned by
// the MC member's count alone; taking the pair minimum would pin such a
// pair at zero trials forever and run the race to MaxTrials whenever
// the MC interval straddles the exact score. A pair of two exact
// members is resolved by definition. order is scratch for the index
// sort.
func topKResolved(order []int, scores, lo, hi []float64, nTrials []int64, exact []bool, k int, eps, delta float64) bool {
	sortIdxByScoreDesc(order, scores)
	last := len(order) - 1
	if k < last {
		last = k
	}
	for j := 1; j <= last; j++ {
		a, b := order[j-1], order[j]
		if lo[a] >= hi[b] {
			continue // intervals disjoint: order certified
		}
		var pairTrials int64
		switch {
		case exact[a] && exact[b]:
			continue // both scores exact: the order is known, not sampled
		case exact[a]:
			pairTrials = nTrials[b]
		case exact[b]:
			pairTrials = nTrials[a]
		default:
			pairTrials = nTrials[a]
			if nTrials[b] < pairTrials {
				pairTrials = nTrials[b]
			}
		}
		if gapCertified(scores[a]-scores[b], int(pairTrials), eps, delta) {
			continue // tie or Theorem 3.1 certificate
		}
		return false
	}
	return true
}

// ArgsortDesc returns the indices of scores sorted descending, ties
// broken by index — the ordering every consumer of a score vector
// (racer, facade, experiments) must agree on.
func ArgsortDesc(scores []float64) []int {
	order := make([]int, len(scores))
	sortIdxByScoreDesc(order, scores)
	return order
}

// sortIdxByScoreDesc fills order with 0..len-1 sorted by scores
// descending, ties broken by index (stable and deterministic). It runs
// every round over all candidates, pruned included, so it must be
// O(n log n), not the insertion sort it once was.
func sortIdxByScoreDesc(order []int, scores []float64) {
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := scores[order[a]], scores[order[b]]
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
}

// confRadius returns a two-sided confidence radius at level 1-delta for
// the mean of n i.i.d. [0,1] samples with empirical mean. It takes the
// tighter of two valid bounds, each run at delta/2:
//
//   - Hoeffding:           sqrt(ln(4/δ) / 2n)
//   - empirical Bernstein: sqrt(2 v ln(6/δ) / n) + 3 ln(6/δ)/n,
//     v = mean(1−mean)
//
// (Audibert, Munos, Szepesvári 2009 form; for Bernoulli samples the
// plug-in variance mean(1−mean) is the MLE of the true variance.) The
// Bernstein radius wins far from 1/2 — reliability races are decided in
// the tails, where near-0 losers and near-1 winners have tiny variance
// and retire after a handful of batches.
func confRadius(mean float64, n int, delta float64) float64 {
	if n <= 0 {
		return 1
	}
	fn := float64(n)
	hoeff := math.Sqrt(math.Log(4/delta) / (2 * fn))
	lb := math.Log(6 / delta)
	v := mean * (1 - mean)
	bern := math.Sqrt(2*v*lb/fn) + 3*lb/fn
	return math.Min(hoeff, bern)
}

// String describes the configuration, for logs.
func (r *TopKRacer) String() string {
	k, eps, delta, batch, maxTrials := r.params(maxInt)
	return fmt.Sprintf("topk-racer(k=%d eps=%g delta=%g batch=%d max=%d worlds=%t)", k, eps, delta, batch, maxTrials, r.Worlds)
}

const maxInt = int(^uint(0) >> 1)
