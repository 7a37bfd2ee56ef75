package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"biorank/internal/kernel"
	"biorank/internal/rank"
)

// This file is an extension beyond the paper: an efficiency and
// agreement study of the bit-parallel Monte Carlo estimator (256
// possible worlds per [4]uint64 block since the block kernel; single
// 64-world words cover remainders) against the scalar traversal kernel
// on the scenario-1 workload. The deterministic cost metric is coin
// decisions: the scalar kernel draws one coin per element per trial,
// the bit-parallel kernel samples one presence mask per element per
// block — the up-to-256-fold amortization that is the estimator's
// whole point. Wall-clock is reported as a secondary, machine-dependent
// observation.

// WorldsRow is one estimator's aggregate cost over the workload.
type WorldsRow struct {
	Config string
	// Trials is the summed simulated world count.
	Trials int64
	// CoinDecisions counts element coin events: per trial for the scalar
	// kernel, per sampled word for the bit-parallel one.
	CoinDecisions int64
	// Millis is total wall-clock milliseconds over the workload
	// (machine-dependent; not asserted by tests).
	Millis float64
}

// WorldsResult is the scalar-vs-bit-parallel comparison.
type WorldsResult struct {
	Graphs     int
	Candidates int
	Trials     int // per-graph trial budget (scalar; worlds rounds up to words)

	Scalar, Worlds WorldsRow

	// MaxAbsDiff is the largest |scalar − worlds| score difference over
	// every answer of every graph; CLTBound is the corresponding 5σ
	// two-sample bound at the budget — agreement holds when
	// MaxAbsDiff ≤ CLTBound.
	MaxAbsDiff, CLTBound float64
	// TopKAgree counts graphs whose top-5 sets and orders match up to
	// sub-eps ties; Disagree is the rest.
	TopKAgree, Disagree int
	// CoinAmortization is scalar/worlds in coin decisions (up to ≈256
	// when every element is uncertain, one mask per element per
	// 256-world block); WallSpeedup is scalar/worlds in wall-clock
	// time.
	CoinAmortization, WallSpeedup float64
}

// BitParallel runs both estimators at the same trial budget over every
// scenario-1 query graph and compares cost and agreement.
func (s *Suite) BitParallel(trials int) (WorldsResult, error) {
	const eps = 0.02
	if trials <= 0 {
		trials = rank.DefaultTrials
	}
	seed := s.Opts.Seed
	out := WorldsResult{Graphs: len(s.Graphs12), Trials: trials}
	for _, qg := range s.Graphs12 {
		out.Candidates += len(qg.Answers)

		scalar := &rank.MonteCarlo{Trials: trials, Seed: seed}
		t0 := time.Now()
		sres, sops, err := scalar.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			return WorldsResult{}, err
		}
		out.Scalar.Millis += float64(time.Since(t0)) / float64(time.Millisecond)
		out.Scalar.Trials += sops.Trials
		out.Scalar.CoinDecisions += sops.CoinFlips

		worlds := &rank.MonteCarlo{Trials: trials, Seed: seed, Worlds: true}
		t0 = time.Now()
		wres, wops, err := worlds.RankWithStatsCtx(context.Background(), qg)
		if err != nil {
			return WorldsResult{}, err
		}
		out.Worlds.Millis += float64(time.Since(t0)) / float64(time.Millisecond)
		out.Worlds.Trials += wops.Trials
		out.Worlds.CoinDecisions += wops.CoinFlips

		for i := range sres.Scores {
			d := math.Abs(sres.Scores[i] - wres.Scores[i])
			if d > out.MaxAbsDiff {
				out.MaxAbsDiff = d
			}
			// Two independent estimates of p differ by at most
			// z·√(2·p(1−p)/n) with z=5 outside vanishing probability.
			v := sres.Scores[i] * (1 - sres.Scores[i])
			if b := 5 * math.Sqrt(2*v/float64(trials)); b > out.CLTBound {
				out.CLTBound = b
			}
		}
		if topKMatches(sres.Scores, wres.Scores, 5, eps) {
			out.TopKAgree++
		} else {
			out.Disagree++
		}
	}
	out.Scalar.Config = fmt.Sprintf("scalar (MC %d)", trials)
	out.Worlds.Config = fmt.Sprintf("bit-parallel (%d words, block kernel)", kernel.WorldWords(trials))
	if out.Worlds.CoinDecisions > 0 {
		out.CoinAmortization = float64(out.Scalar.CoinDecisions) / float64(out.Worlds.CoinDecisions)
	}
	if out.Worlds.Millis > 0 {
		out.WallSpeedup = out.Scalar.Millis / out.Worlds.Millis
	}
	return out, nil
}

// RenderWorlds formats the comparison for the CLI.
func RenderWorlds(r WorldsResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bit-parallel vs scalar Monte Carlo at %d trials (%d scenario-1 graphs, %d candidates)\n",
		r.Trials, r.Graphs, r.Candidates)
	fmt.Fprintf(&b, "%-26s %14s %16s %12s\n", "config", "worlds", "coin decisions", "total ms")
	for _, row := range []WorldsRow{r.Scalar, r.Worlds} {
		fmt.Fprintf(&b, "%-26s %14d %16d %12.1f\n", row.Config, row.Trials, row.CoinDecisions, row.Millis)
	}
	fmt.Fprintf(&b, "coin amortization %.1fx, wall-clock speedup %.1fx; max score diff %.4f (5σ bound %.4f); top-5 agreement %d/%d\n",
		r.CoinAmortization, r.WallSpeedup, r.MaxAbsDiff, r.CLTBound, r.TopKAgree, r.Graphs)
	return b.String()
}
