package rank

import (
	"context"

	"biorank/internal/kernel"
	"biorank/internal/prob"
)

// sampler is the one Monte Carlo sampling path of the reliability
// estimators: MonteCarlo (serial and per shard), AdaptiveMonteCarlo,
// TopKRacer and, through the racer, HybridPlanner. It owns the choice
// between the scalar kernel and the 256-world block kernel, the word
// rounding of budgets and caps, and the chunking with context checks;
// the estimators only decide how many trials to run next and what to
// make of the counts.
//
// The scalar path draws every trial from one RNG stream. The block path
// runs one kernel.WorldsBlockSession for the sampler's whole life, so a
// run split into batches or chunks samples exactly the worlds of one
// long run.
type sampler struct {
	plan *kernel.Plan
	rng  *prob.RNG
	sess *kernel.WorldsBlockSession // nil: scalar kernel
	ops  *kernel.SimOps             // nil: the kernels skip counting
}

// newSampler starts a sampler on plan drawing from rng. ops, when
// non-nil, accumulates the kernels' operation counters.
func newSampler(plan *kernel.Plan, rng *prob.RNG, worlds bool, ops *kernel.SimOps) *sampler {
	s := &sampler{plan: plan, rng: rng, ops: ops}
	if worlds {
		s.sess = plan.NewWorldsBlockSession(rng)
	}
	return s
}

// sampleUnit is the indivisible amount of sampling work in trials: one
// scalar trial, or one 64-world word on the block kernel (a fractional
// word costs as much as a full one).
func sampleUnit(worlds bool) int {
	if worlds {
		return kernel.WordSize
	}
	return 1
}

func (s *sampler) unit() int { return sampleUnit(s.sess != nil) }

// capTrials rounds a trial cap DOWN to whole units, never below one
// unit. The sequential estimators round each batch UP to whole units;
// with both the cap and the running total on unit multiples, a batch
// can then never overshoot the cap.
func (s *sampler) capTrials(max int) int {
	u := s.unit()
	max -= max % u
	if max < u {
		max = u
	}
	return max
}

// sample simulates n trials, rounded UP to whole units, and ADDS the
// per-node reach counts into counts. mask, when non-nil, restricts the
// simulation to an ActiveMask's live subgraph (the racer's elimination
// feedback). It returns the trials simulated.
func (s *sampler) sample(counts []int64, mask []bool, n int) int {
	if s.sess != nil {
		words := kernel.WorldWords(n)
		s.sess.Counts(counts, mask, words, s.ops)
		return words * kernel.WordSize
	}
	s.plan.ReliabilityCounts(counts, mask, n, s.rng, s.ops)
	return n
}

// run simulates a fixed budget of trials, rounded UP to whole units, and
// ADDS the reach counts into counts. It returns the trials executed and
// whether ctx cut the run short. An uncancellable ctx runs the budget as
// one kernel call; otherwise the run goes in chunks of the plan's
// BatchHint — a BlockSize multiple, so the chunked run samples exactly
// the worlds of the one-call run — with a ctx check before each.
func (s *sampler) run(ctx context.Context, counts []int64, trials int) (int, bool) {
	u := s.unit()
	total := (trials + u - 1) / u * u
	chunk := total
	if ctx != nil && ctx.Done() != nil {
		chunk = s.plan.BatchHint()
	}
	done := 0
	for done < total {
		if ctxErr(ctx) != nil {
			return done, true
		}
		done += s.sample(counts, nil, min(chunk, total-done))
	}
	return done, false
}

// seqDefaults fills the defaults shared by the sequential estimators
// (AdaptiveMonteCarlo, TopKRacer, HybridPlanner): eps 0.02, the paper's
// choice; delta 0.05; 500-trial batches; a cap of 10·DefaultTrials.
func seqDefaults(eps, delta float64, batch, maxTrials int) (float64, float64, int, int) {
	if eps <= 0 {
		eps = 0.02
	}
	if delta <= 0 {
		delta = 0.05
	}
	if batch <= 0 {
		batch = 500
	}
	if maxTrials <= 0 {
		maxTrials = 10 * DefaultTrials
	}
	return eps, delta, batch, maxTrials
}
