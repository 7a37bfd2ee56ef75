package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"biorank/internal/kernel"
	"biorank/internal/rank"
)

// This file measures graceful degradation under deadlines: how much of
// the full-budget reliability ranking survives when the Monte Carlo
// estimator is cut off early. The serving stack never fails a
// deadline-hit request — it returns the ranking built from the trials
// completed so far — so the operative question is how fast that
// partial ranking converges to the full one as the deadline grows.
//
// Deadlines are simulated deterministically at the estimator's actual
// interruption points: the context "expires" after a fixed number of
// batch-boundary checks instead of after a wall-clock interval, so the
// study is reproducible and hardware-independent. A fraction f of a
// graph's batch count corresponds to roughly f of its trial budget.

// checkBudgetCtx is a context whose Err flips to Canceled after a
// fixed number of Err calls — each call models one batch boundary
// surviving the deadline.
type checkBudgetCtx struct {
	context.Context
	done chan struct{}

	mu   sync.Mutex
	left int
}

func newCheckBudgetCtx(checks int) *checkBudgetCtx {
	return &checkBudgetCtx{Context: context.Background(), done: make(chan struct{}), left: checks}
}

// Done returns a non-nil, never-closed channel: the estimators treat a
// nil Done as "uncancellable" and would skip their checks entirely.
func (c *checkBudgetCtx) Done() <-chan struct{} { return c.done }

func (c *checkBudgetCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// DegradationStep is the outcome of one deadline fraction over every
// scenario-1 graph.
type DegradationStep struct {
	// Fraction is the share of each graph's simulation batches allowed
	// to run before the simulated deadline fired (1 means no deadline).
	Fraction float64
	// Truncated counts graphs whose ranking was cut short.
	Truncated int
	// MeanTau and MinTau are Kendall tau-b of the partial scores
	// against the same seed's full-budget scores; fully-tied partial
	// vectors (e.g. all-zero after an immediate expiry) carry no
	// ordering information and are skipped.
	MeanTau, MinTau float64
	// Pairs counts the graphs that entered the tau aggregate.
	Pairs int
}

// DegradationResult is the anytime-degradation study over scenario 1.
type DegradationResult struct {
	Trials int
	Graphs int
	Steps  []DegradationStep
}

// AnytimeDegradation ranks every scenario-1 graph by reliability at
// the given trial budget, then re-ranks under simulated deadlines that
// allow only a fraction of each graph's simulation batches, and
// reports how the truncated rankings correlate with the full one.
// trials <= 0 defaults to four full batch hints, so even the smallest
// graphs span several interruption points.
func (s *Suite) AnytimeDegradation(trials int) (DegradationResult, error) {
	fractions := []float64{0, 0.25, 0.5, 0.75, 1}
	out := DegradationResult{Trials: trials, Graphs: len(s.Graphs12)}
	accums := make([]tauAccum, len(fractions))
	truncated := make([]int, len(fractions))
	for _, qg := range s.Graphs12 {
		hint := kernel.PlanOf(qg).BatchHint()
		t := trials
		if t <= 0 {
			t = 4 * hint
		}
		batches := (t + hint - 1) / hint
		mc := &rank.MonteCarlo{Trials: t, Seed: s.Opts.Seed}
		full, err := mc.RankCtx(context.Background(), qg)
		if err != nil {
			return DegradationResult{}, err
		}
		for fi, f := range fractions {
			var res rank.Result
			if f >= 1 {
				res, err = mc.RankCtx(context.Background(), qg)
			} else {
				res, err = mc.RankCtx(newCheckBudgetCtx(int(f*float64(batches)+0.5)), qg)
			}
			if err != nil {
				return DegradationResult{}, err
			}
			if res.Truncated {
				truncated[fi]++
			}
			accums[fi].add(KendallTau(res.Scores, full.Scores))
		}
	}
	if out.Trials <= 0 {
		out.Trials = -1 // per-graph default; rendered as "4 batches"
	}
	for fi, f := range fractions {
		row := accums[fi].row("")
		out.Steps = append(out.Steps, DegradationStep{
			Fraction:  f,
			Truncated: truncated[fi],
			MeanTau:   row.MeanTau,
			MinTau:    row.MinTau,
			Pairs:     row.Pairs,
		})
	}
	return out, nil
}

// RenderDegradation formats the study for the CLI.
func RenderDegradation(r DegradationResult) string {
	var b strings.Builder
	budget := fmt.Sprintf("%d trials", r.Trials)
	if r.Trials < 0 {
		budget = "4 batches/graph"
	}
	fmt.Fprintf(&b, "Anytime degradation under deadlines (%d scenario-1 graphs, %s, Kendall tau-b vs full budget)\n",
		r.Graphs, budget)
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %8s\n", "deadline", "truncated", "mean tau", "min tau", "graphs")
	for _, st := range r.Steps {
		name := fmt.Sprintf("%.0f%% budget", 100*st.Fraction)
		if st.Fraction >= 1 {
			name = "no deadline"
		}
		mean, min := fmt.Sprintf("%.4f", st.MeanTau), fmt.Sprintf("%.4f", st.MinTau)
		if st.Pairs == 0 {
			// No partial ranking carried ordering information (all ties).
			mean, min = "—", "—"
		} else if math.IsNaN(st.MeanTau) || math.IsNaN(st.MinTau) {
			mean, min = "NaN", "NaN"
		}
		fmt.Fprintf(&b, "%-16s %10d %10s %10s %8d\n", name, st.Truncated, mean, min, st.Pairs)
	}
	return b.String()
}
