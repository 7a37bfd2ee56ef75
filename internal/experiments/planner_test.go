package experiments

import (
	"math"
	"testing"
)

// TestPlannerEfficiencyOnFigure8Workload is the acceptance check for
// the hybrid planner: on the scenario-1 query graphs it must route at
// least one answer to the exact evaluator, spend fewer candidate-trials
// than the plain racer at the same k and seed, and still reproduce the
// fixed-budget top-5 (up to sub-eps ties) on every graph.
func TestPlannerEfficiencyOnFigure8Workload(t *testing.T) {
	s := suite(t)
	const k = 5
	res, err := s.PlannerEfficiency(k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disagree != 0 {
		t.Errorf("planner top-%d disagreed with fixed budget on %d/%d graphs", k, res.Disagree, res.Graphs)
	}
	if res.Planner.ExactAnswers == 0 {
		t.Error("planner routed no answers exactly across the whole workload")
	}
	if res.Planner.ClosedFormAnswers > res.Planner.ExactAnswers {
		t.Errorf("closed-form answers %d exceed exact answers %d",
			res.Planner.ClosedFormAnswers, res.Planner.ExactAnswers)
	}
	if res.Planner.CandidateTrials >= res.Racer.CandidateTrials {
		t.Errorf("planner candidate-trials %d not below racer %d",
			res.Planner.CandidateTrials, res.Racer.CandidateTrials)
	}
	t.Logf("racer %d / planner %d candidate-trials (%.1f%% saved); %d/%d answers exact (%d closed form, %d conditionings); agreement %d/%d",
		res.Racer.CandidateTrials, res.Planner.CandidateTrials, 100*res.CandidateSavings,
		res.Planner.ExactAnswers, res.Candidates, res.Planner.ClosedFormAnswers,
		res.Planner.Conditionings, res.TopKAgree, res.Graphs)
}

func TestKendallTau(t *testing.T) {
	same := []float64{0.9, 0.7, 0.5, 0.3}
	if tau := KendallTau(same, []float64{4, 3, 2, 1}); tau != 1 {
		t.Errorf("identical order: tau = %v, want 1", tau)
	}
	if tau := KendallTau(same, []float64{1, 2, 3, 4}); tau != -1 {
		t.Errorf("reversed order: tau = %v, want -1", tau)
	}
	// One swapped adjacent pair out of 6: tau = (5-1)/6.
	if tau := KendallTau(same, []float64{4, 3, 1, 2}); math.Abs(tau-4.0/6.0) > 1e-12 {
		t.Errorf("one swap: tau = %v, want %v", tau, 4.0/6.0)
	}
	// Fully tied vectors carry no ordering information.
	if tau := KendallTau([]float64{1, 1, 1}, []float64{2, 2, 2}); !math.IsNaN(tau) {
		t.Errorf("fully tied: tau = %v, want NaN", tau)
	}
	// tau-b discounts ties symmetrically: a tie in one vector against a
	// strict order in the other shrinks |tau| below 1.
	tau := KendallTau([]float64{2, 1, 1}, []float64{3, 2, 1})
	if !(tau > 0 && tau < 1) {
		t.Errorf("tied-vs-strict: tau = %v, want in (0, 1)", tau)
	}
}

// TestRankStabilityPlanner pins that the planner's rankings drift
// across seeds no more than pure Monte Carlo at the same budget — the
// exactly-solved answers are seed-independent by construction.
func TestRankStabilityPlanner(t *testing.T) {
	s := suite(t)
	res, err := s.RankStability(3, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []StabilityRow{res.Fixed, res.Racer, res.Planner, res.Block, res.BlockVsScalar} {
		if row.Pairs == 0 {
			t.Fatalf("%s: no tau pairs measured", row.Config)
		}
		if row.MeanTau < -1 || row.MeanTau > 1 || row.MinTau < -1 || row.MinTau > 1 {
			t.Fatalf("%s: tau out of [-1,1]: %+v", row.Config, row)
		}
	}
	// Estimators agree with themselves far more than chance.
	if res.Fixed.MeanTau < 0.5 {
		t.Errorf("fixed MC mean tau %.4f implausibly low", res.Fixed.MeanTau)
	}
	if res.Planner.MeanTau < res.Fixed.MeanTau-0.05 {
		t.Errorf("planner mean tau %.4f materially below fixed MC %.4f",
			res.Planner.MeanTau, res.Fixed.MeanTau)
	}
	// The served block kernel ranks like the scalar one: across its own
	// seeds and against the scalar kernel at the same seed, tau stays
	// near the scalar across-seed tau.
	for _, row := range []StabilityRow{res.Block, res.BlockVsScalar} {
		if row.MeanTau < res.Fixed.MeanTau-0.05 {
			t.Errorf("%s mean tau %.4f materially below fixed MC %.4f", row.Config, row.MeanTau, res.Fixed.MeanTau)
		}
	}
	t.Logf("mean tau: fixed %.4f, racer %.4f, planner %.4f, block %.4f, block vs scalar %.4f",
		res.Fixed.MeanTau, res.Racer.MeanTau, res.Planner.MeanTau, res.Block.MeanTau, res.BlockVsScalar.MeanTau)

	if _, err := s.RankStability(1, 400); err == nil {
		t.Error("RankStability accepted a single seed")
	}
}
