package experiments

import (
	"context"
	"fmt"
	"strings"

	"biorank/internal/rank"
)

// This file extends the racer study to the hybrid exact/Monte-Carlo
// planner: on the Figure 8 workload (scenario-1 query graphs) it
// measures how many answers the per-candidate exact probe routes away
// from simulation entirely, and how much of the racer's remaining
// candidate-trial cost the exact priors save. The reference ranking is
// the fixed Theorem 3.1 budget, as in RacerEfficiency.

// PlannerRow is the planner's aggregate cost over the workload.
type PlannerRow struct {
	Config string
	// Trials / CandidateTrials as in RacerRow: the planner's counts
	// cover only the Monte Carlo remainder (exact answers cost zero).
	Trials          int64
	CandidateTrials int64
	// Pruned counts candidates eliminated by the race.
	Pruned int
	// ExactAnswers / ClosedFormAnswers / Conditionings total the probe
	// telemetry: answers solved exactly, the subset needing zero
	// factoring steps, and the conditioning steps spent (including on
	// probes that exhausted their budget and fell back to simulation).
	ExactAnswers      int
	ClosedFormAnswers int
	Conditionings     int
}

// PlannerResult compares the planner against the plain top-k racer on
// the Figure 8 workload.
type PlannerResult struct {
	K          int
	Graphs     int
	Candidates int // summed answer-set size
	Racer      RacerRow
	Planner    PlannerRow
	// TopKAgree counts graphs whose planner top-k matches the
	// fixed-budget reference up to sub-eps ties; Disagree is the rest.
	TopKAgree, Disagree int
	// CandidateSavings is 1 − planner/racer in candidate-trials.
	CandidateSavings float64
}

// PlannerEfficiency runs the hybrid planner over every scenario-1 query
// graph and compares its simulation cost against the plain racer at the
// same k and seed.
func (s *Suite) PlannerEfficiency(k int) (PlannerResult, error) {
	const eps = 0.02
	seed := s.Opts.Seed
	out := PlannerResult{K: k, Graphs: len(s.Graphs12)}
	for _, qg := range s.Graphs12 {
		out.Candidates += len(qg.Answers)

		fixed := &rank.MonteCarlo{Trials: rank.DefaultTrials, Seed: seed}
		fres, err := fixed.RankCtx(context.Background(), qg)
		if err != nil {
			return PlannerResult{}, err
		}

		racer := &rank.TopKRacer{K: k, Seed: seed}
		_, rs, err := racer.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			return PlannerResult{}, err
		}
		out.Racer.Trials += rs.Trials
		out.Racer.CandidateTrials += rs.CandidateTrials()
		out.Racer.Pruned += rs.Pruned

		planner := &rank.HybridPlanner{K: k, Seed: seed}
		pres, ps, err := planner.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			return PlannerResult{}, err
		}
		out.Planner.Trials += ps.Trials
		out.Planner.CandidateTrials += ps.CandidateTrials()
		out.Planner.Pruned += ps.Pruned
		out.Planner.ExactAnswers += ps.ExactAnswers
		out.Planner.ClosedFormAnswers += ps.ClosedFormAnswers
		out.Planner.Conditionings += ps.Conditionings

		if topKMatches(fres.Scores, pres.Scores, k, eps) {
			out.TopKAgree++
		} else {
			out.Disagree++
		}
	}
	out.Racer.Config = fmt.Sprintf("racer (K=%d)", k)
	out.Planner.Config = fmt.Sprintf("planner (K=%d, budget=%d)", k, rank.DefaultPlannerBudget)
	if out.Racer.CandidateTrials > 0 {
		out.CandidateSavings = 1 - float64(out.Planner.CandidateTrials)/float64(out.Racer.CandidateTrials)
	}
	return out, nil
}

// RenderPlanner formats the comparison for the CLI.
func RenderPlanner(r PlannerResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hybrid planner vs top-%d racer (%d scenario-1 graphs, %d candidates)\n",
		r.K, r.Graphs, r.Candidates)
	fmt.Fprintf(&b, "%-28s %14s %18s %8s\n", "config", "trials", "candidate-trials", "pruned")
	fmt.Fprintf(&b, "%-28s %14d %18d %8d\n", r.Racer.Config, r.Racer.Trials, r.Racer.CandidateTrials, r.Racer.Pruned)
	fmt.Fprintf(&b, "%-28s %14d %18d %8d\n", r.Planner.Config, r.Planner.Trials, r.Planner.CandidateTrials, r.Planner.Pruned)
	fmt.Fprintf(&b, "planner routed %d/%d answers exactly (%d closed form, %d conditioning steps), saving %.1f%% candidate-trials; top-%d agreement %d/%d\n",
		r.Planner.ExactAnswers, r.Candidates, r.Planner.ClosedFormAnswers, r.Planner.Conditionings,
		100*r.CandidateSavings, r.K, r.TopKAgree, r.Graphs)
	return b.String()
}
