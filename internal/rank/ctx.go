package rank

import (
	"context"

	"biorank/internal/kernel"
)

// Deadline-aware estimation support shared by the Monte Carlo
// estimators. The contract (see Result.Truncated): estimators check
// their context only at batch boundaries — never inside kernel inner
// loops — and an expired deadline yields the partial tallies computed
// so far, with valid confidence intervals, instead of an error. The
// anytime structure of the estimators (chunked fixed-budget simulation,
// adaptive batches, racer rounds, planner races) makes the best answer
// so far always well defined.

// truncationAlpha is the confidence level of the Wilson
// intervals attached to truncated tallies: 95%, matching the paper's
// Theorem 3.1 delta and the racer's default Delta.
const truncationAlpha = 0.05

// ctxErr returns ctx's error without touching the (comparatively
// expensive) Err() path for contexts that can never be cancelled; the
// uncancellable case is the hot path of every non-deadline caller.
func ctxErr(ctx context.Context) error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx.Err()
}

// wilsonTallyBounds builds per-answer Wilson intervals from the raw
// per-node reach tallies of an interrupted simulation. counts may be
// nil and executed may be zero (a deadline that expired before the
// first batch), in which case every interval is the vacuous [0,1] —
// still a valid bound around the zero scores reported with it.
func wilsonTallyBounds(plan *kernel.Plan, counts []int64, executed int) (lo, hi []float64) {
	nA := plan.NumAnswers()
	lo = make([]float64, nA)
	hi = make([]float64, nA)
	for i := 0; i < nA; i++ {
		var s int64
		if counts != nil && executed > 0 {
			s = counts[plan.AnswerNode(i)]
		}
		lo[i], hi[i] = WilsonInterval(s, int64(executed), truncationAlpha)
	}
	return lo, hi
}
