package experiments

import (
	"context"

	"biorank/internal/rank"
)

// Fig7Point is one x-position of Figure 7: the ranking quality (scenario
// 1, reliability) achieved with a given number of Monte Carlo trials,
// over m repetitions with independent seeds.
type Fig7Point struct {
	Trials int
	AP     APStat
}

// Fig7Result is the convergence curve plus the two reference lines of
// Figure 7.
type Fig7Result struct {
	Points []Fig7Point
	// ClosedAP is the AP achieved by the exact (closed-solution)
	// reliability scores — the convergence target.
	ClosedAP float64
	// RandomAP is the random-ranking baseline.
	RandomAP float64
}

// Fig7TrialCounts is the default trial ladder (the paper sweeps
// n = 1, 3, 10, ..., 10000).
var Fig7TrialCounts = []int{1, 3, 10, 32, 100, 316, 1000, 3162, 10000}

// Figure7 reproduces the Monte Carlo convergence experiment: the paper's
// observation is that 1,000 trials already deliver reliable rankings,
// comfortably under the Theorem 3.1 bound of ~10,000.
func (s *Suite) Figure7(trialCounts []int) (Fig7Result, error) {
	if len(trialCounts) == 0 {
		trialCounts = Fig7TrialCounts
	}
	cases := s.scenario1()
	var result Fig7Result

	// Reference lines: exact reliability and random baseline.
	var closedAPs []float64
	for _, c := range cases {
		exact, _, err := rank.ExactReliability(c.QG, 0)
		if err != nil {
			return Fig7Result{}, err
		}
		if ap, ok := apForItems(itemsFor(c.QG, exact, c.Relevant, c.Exclude)); ok {
			closedAPs = append(closedAPs, ap)
		}
	}
	result.ClosedAP = apStat(closedAPs).Mean
	result.RandomAP = randomAPOver(cases).Mean

	for _, trials := range trialCounts {
		var aps []float64
		for rep := 0; rep < s.Opts.Repeats; rep++ {
			mc := &rank.MonteCarlo{
				Trials: trials,
				Seed:   s.Opts.Seed*1e9 + uint64(trials)*1e4 + uint64(rep),
				Reduce: true,
			}
			for _, c := range cases {
				res, err := mc.RankCtx(context.Background(), c.QG)
				if err != nil {
					return Fig7Result{}, err
				}
				if ap, ok := apForItems(itemsFor(c.QG, res.Scores, c.Relevant, c.Exclude)); ok {
					aps = append(aps, ap)
				}
			}
		}
		result.Points = append(result.Points, Fig7Point{Trials: trials, AP: apStat(aps)})
	}
	return result, nil
}
