package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"biorank/internal/rank"
)

// This file measures rank stability: how much a method's ranking of the
// same answer set moves when only the RNG seed changes. Monte Carlo
// estimators are noisy at small budgets; the hybrid planner pins every
// exactly-solved answer's score, so its rankings should drift less than
// pure simulation at the same budget. The metric is Kendall tau-b
// between the score vectors produced under different seeds.

// KendallTau returns the tau-b rank correlation of two score vectors
// over the same candidates: +1 for identical orders, −1 for exactly
// reversed ones, with tied pairs discounted symmetrically (tau-b). NaN
// when either vector is fully tied (no ordering information).
func KendallTau(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("experiments: KendallTau vectors differ in length")
	}
	n := len(a)
	var concordant, discordant, tiesA, tiesB int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			switch {
			case da == 0 && db == 0:
				tiesA++
				tiesB++
			case da == 0:
				tiesA++
			case db == 0:
				tiesB++
			case (da > 0) == (db > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	n0 := int64(n) * int64(n-1) / 2
	denom := math.Sqrt(float64(n0-tiesA) * float64(n0-tiesB))
	if denom == 0 {
		return math.NaN()
	}
	return float64(concordant-discordant) / denom
}

// StabilityRow aggregates pairwise Kendall tau for one configuration.
type StabilityRow struct {
	Config string
	// MeanTau averages tau over all (graph, seed-pair) combinations;
	// MinTau is the worst pair observed. Fully-tied vectors are skipped.
	MeanTau, MinTau float64
	// Pairs counts the (graph, seed-pair) combinations that entered the
	// mean.
	Pairs int
}

// StabilityResult compares rank stability across estimators on the
// scenario-1 workload.
type StabilityResult struct {
	Seeds   int
	Trials  int
	Graphs  int
	Fixed   StabilityRow
	Racer   StabilityRow
	Planner StabilityRow
	// Block is the fixed-budget estimator on the 256-world block kernel,
	// the one served for every sampled request, across seeds.
	Block StabilityRow
	// BlockVsScalar compares the block and scalar fixed-budget rankings
	// at the same seed index: the two kernels sample the same
	// distribution on different RNG streams, so it should sit where the
	// across-seed rows do.
	BlockVsScalar StabilityRow
}

type tauAccum struct {
	sum   float64
	min   float64
	pairs int
}

func (t *tauAccum) add(tau float64) {
	if math.IsNaN(tau) {
		return
	}
	if t.pairs == 0 || tau < t.min {
		t.min = tau
	}
	t.sum += tau
	t.pairs++
}

func (t *tauAccum) row(config string) StabilityRow {
	r := StabilityRow{Config: config, MinTau: t.min, Pairs: t.pairs}
	if t.pairs > 0 {
		r.MeanTau = t.sum / float64(t.pairs)
	}
	return r
}

// RankStability reranks every scenario-1 graph under `seeds` different
// RNG seeds at the given trial budget and reports the pairwise Kendall
// tau of the resulting score vectors for the fixed-budget estimator,
// the top-k racer (full ranking) and the hybrid planner, then for the
// fixed-budget estimator on the block kernel, across seeds and against
// the scalar one at the same seed.
func (s *Suite) RankStability(seeds, trials int) (StabilityResult, error) {
	if seeds < 2 {
		return StabilityResult{}, fmt.Errorf("experiments: rank stability needs >= 2 seeds, got %d", seeds)
	}
	if trials <= 0 {
		trials = s.Opts.SensitivityTrials
	}
	out := StabilityResult{Seeds: seeds, Trials: trials, Graphs: len(s.Graphs12)}
	var fixed, racer, planner, block, blockVsScalar tauAccum
	for _, qg := range s.Graphs12 {
		nSeeds := make([][4][]float64, seeds)
		for i := 0; i < seeds; i++ {
			seed := s.Opts.Seed + uint64(i)
			f := &rank.MonteCarlo{Trials: trials, Seed: seed}
			fres, err := f.RankCtx(context.Background(), qg)
			if err != nil {
				return StabilityResult{}, err
			}
			r := &rank.TopKRacer{Seed: seed, MaxTrials: trials}
			rres, err := r.RankCtx(context.Background(), qg)
			if err != nil {
				return StabilityResult{}, err
			}
			p := &rank.HybridPlanner{Seed: seed, MaxTrials: trials}
			pres, err := p.RankCtx(context.Background(), qg)
			if err != nil {
				return StabilityResult{}, err
			}
			b := &rank.MonteCarlo{Trials: trials, Seed: seed, Worlds: true}
			bres, err := b.RankCtx(context.Background(), qg)
			if err != nil {
				return StabilityResult{}, err
			}
			nSeeds[i] = [4][]float64{fres.Scores, rres.Scores, pres.Scores, bres.Scores}
			blockVsScalar.add(KendallTau(bres.Scores, fres.Scores))
		}
		for i := 0; i < seeds; i++ {
			for j := i + 1; j < seeds; j++ {
				fixed.add(KendallTau(nSeeds[i][0], nSeeds[j][0]))
				racer.add(KendallTau(nSeeds[i][1], nSeeds[j][1]))
				planner.add(KendallTau(nSeeds[i][2], nSeeds[j][2]))
				block.add(KendallTau(nSeeds[i][3], nSeeds[j][3]))
			}
		}
	}
	out.Fixed = fixed.row(fmt.Sprintf("fixed (MC %d)", trials))
	out.Racer = racer.row("racer (full ranking)")
	out.Planner = planner.row("planner")
	out.Block = block.row(fmt.Sprintf("fixed (block MC %d)", trials))
	out.BlockVsScalar = blockVsScalar.row("block vs scalar")
	return out, nil
}

// RenderStability formats the comparison for the CLI.
func RenderStability(r StabilityResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rank stability across %d seeds at %d trials (%d scenario-1 graphs, Kendall tau-b)\n",
		r.Seeds, r.Trials, r.Graphs)
	fmt.Fprintf(&b, "%-24s %10s %10s %8s\n", "config", "mean tau", "min tau", "pairs")
	for _, row := range []StabilityRow{r.Fixed, r.Racer, r.Planner, r.Block, r.BlockVsScalar} {
		fmt.Fprintf(&b, "%-24s %10.4f %10.4f %8d\n", row.Config, row.MeanTau, row.MinTau, row.Pairs)
	}
	return b.String()
}
