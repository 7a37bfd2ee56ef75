package experiments

import (
	"context"
	"fmt"
	"strings"

	"biorank/internal/rank"
)

// This file is an extension beyond the paper: a pruning-efficiency
// study of the successive-elimination top-k racer against the fixed
// Theorem 3.1 budget and the adaptive early-stopping estimator on the
// Figure 8 workload (the scenario-1 query graphs). The cost metric is
// candidate-trials — the number of (candidate, trial) simulation pairs —
// which is what elimination actually saves: the fixed and adaptive
// estimators simulate every candidate in every trial, the racer stops
// simulating a candidate the round it is certifiably out of the top k.

// RacerRow is one estimator's aggregate cost over the workload.
type RacerRow struct {
	Config string
	// Trials is the summed per-graph trial count (max per candidate).
	Trials int64
	// CandidateTrials sums trials over candidates; for fixed/adaptive
	// this is Trials × candidates per graph.
	CandidateTrials int64
	// Ops are the deterministic kernel operation counters.
	Ops rank.OpStats
	// Pruned is the total number of candidates eliminated early (racer
	// only).
	Pruned int
}

// RacerResult is the racer-vs-baselines comparison on the Figure 8
// workload.
type RacerResult struct {
	K                      int
	Graphs                 int
	Candidates             int // summed answer-set size
	Fixed, Adaptive, Racer RacerRow
	// TopKAgree counts graphs whose racer top-k set and order match the
	// fixed-budget reference up to sub-eps ties; Disagree is the rest.
	TopKAgree, Disagree int
	// CandidateSavings is 1 − racer/adaptive in candidate-trials.
	CandidateSavings float64
	// OpSavings is 1 − racer/adaptive in total simulation operations.
	OpSavings float64
}

// RacerEfficiency races every scenario-1 query graph for its top k and
// compares the cost against the fixed budget and the adaptive stopping
// rule (both with the same seed and the paper's eps/delta).
func (s *Suite) RacerEfficiency(k int) (RacerResult, error) {
	const eps = 0.02
	seed := s.Opts.Seed
	out := RacerResult{K: k, Graphs: len(s.Graphs12)}
	for _, qg := range s.Graphs12 {
		nA := int64(len(qg.Answers))
		out.Candidates += int(nA)

		fixed := &rank.MonteCarlo{Trials: rank.DefaultTrials, Seed: seed}
		fres, fops, err := fixed.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			return RacerResult{}, err
		}
		out.Fixed.Trials += fops.Trials
		out.Fixed.CandidateTrials += fops.Trials * nA
		out.Fixed.Ops.Add(fops)

		adaptive := &rank.AdaptiveMonteCarlo{Seed: seed, TopK: k}
		_, aops, err := adaptive.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			return RacerResult{}, err
		}
		out.Adaptive.Trials += aops.Trials
		out.Adaptive.CandidateTrials += aops.Trials * nA
		out.Adaptive.Ops.Add(aops)

		racer := &rank.TopKRacer{K: k, Seed: seed}
		rres, rs, err := racer.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			return RacerResult{}, err
		}
		out.Racer.Trials += rs.Trials
		out.Racer.CandidateTrials += rs.CandidateTrials()
		out.Racer.Ops.Add(rs.OpStats)
		out.Racer.Pruned += rs.Pruned

		if topKMatches(fres.Scores, rres.Scores, k, eps) {
			out.TopKAgree++
		} else {
			out.Disagree++
		}
	}
	out.Fixed.Config = fmt.Sprintf("fixed (MC %d)", rank.DefaultTrials)
	out.Adaptive.Config = fmt.Sprintf("adaptive (TopK=%d)", k)
	out.Racer.Config = fmt.Sprintf("racer (K=%d)", k)
	if out.Adaptive.CandidateTrials > 0 {
		out.CandidateSavings = 1 - float64(out.Racer.CandidateTrials)/float64(out.Adaptive.CandidateTrials)
	}
	if t := out.Adaptive.Ops.Total(); t > 0 {
		out.OpSavings = 1 - float64(out.Racer.Ops.Total())/float64(t)
	}
	return out, nil
}

// topKMatches reports whether the top-k order of got matches that of
// want, treating answers whose reference scores differ by at most eps
// as interchangeable ties.
func topKMatches(want, got []float64, k int, eps float64) bool {
	w := rank.ArgsortDesc(want)
	g := rank.ArgsortDesc(got)
	if k > len(w) {
		k = len(w)
	}
	for pos := 0; pos < k; pos++ {
		if w[pos] == g[pos] {
			continue
		}
		if gap := want[w[pos]] - want[g[pos]]; gap > eps || gap < -eps {
			return false
		}
	}
	return true
}

// RenderRacer formats the comparison for the CLI.
func RenderRacer(r RacerResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Top-%d racer vs fixed and adaptive Monte Carlo (%d scenario-1 graphs, %d candidates)\n",
		r.K, r.Graphs, r.Candidates)
	fmt.Fprintf(&b, "%-22s %14s %18s %16s %8s\n", "config", "trials", "candidate-trials", "sim ops", "pruned")
	for _, row := range []RacerRow{r.Fixed, r.Adaptive, r.Racer} {
		fmt.Fprintf(&b, "%-22s %14d %18d %16d %8d\n",
			row.Config, row.Trials, row.CandidateTrials, row.Ops.Total(), row.Pruned)
	}
	fmt.Fprintf(&b, "racer saves %.1f%% candidate-trials and %.1f%% sim ops vs adaptive; top-%d agreement %d/%d\n",
		100*r.CandidateSavings, 100*r.OpSavings, r.K, r.TopKAgree, r.Graphs)
	return b.String()
}
