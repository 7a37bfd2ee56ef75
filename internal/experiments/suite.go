// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section 4) against the synthetic worlds of
// internal/synth: Table 1 (golden proteins), Figure 5 (ranking quality of
// the five methods across three scenarios), Tables 2-3 (per-function
// ranks), Figure 6 (sensitivity to perturbed input probabilities),
// Figure 7 (Monte Carlo convergence) and Figure 8 (evaluation cost).
//
// Absolute timings depend on hardware; what must reproduce is the shape:
// which method wins where, by roughly what factor, and where crossovers
// fall. EXPERIMENTS.md records paper-vs-measured for every experiment.
//
// Estimators run under context.Background(): the evaluation measures
// full, uncancellable budgets (the degradation study simulates its
// deadlines with a step context instead).
package experiments

import (
	"fmt"

	"biorank/internal/bio"
	"biorank/internal/graph"
	"biorank/internal/metrics"
	"biorank/internal/rank"
	"biorank/internal/synth"
)

// Options configure the experiment suite.
type Options struct {
	// Seed drives world construction and all simulations.
	Seed uint64
	// Trials is the Monte Carlo trial count for headline reliability
	// numbers (paper: 10,000 per Theorem 3.1).
	Trials int
	// SensitivityTrials is the trial count inside the perturbation loops
	// (paper's convergence analysis shows 1,000 suffices).
	SensitivityTrials int
	// Repeats is m, the number of repetitions for Figures 6 and 7
	// (paper: 100).
	Repeats int
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{Seed: 1, Trials: 10000, SensitivityTrials: 1000, Repeats: 100}
}

// QuickOptions returns reduced settings for tests.
func QuickOptions() Options {
	return Options{Seed: 1, Trials: 1500, SensitivityTrials: 400, Repeats: 8}
}

// APStat is a mean and sample standard deviation of average precision
// over the proteins of a scenario.
type APStat struct {
	Mean, Std float64
}

func apStat(xs []float64) APStat {
	return APStat{Mean: metrics.Mean(xs), Std: metrics.Stddev(xs)}
}

// MethodNames is the display order used throughout the paper's figures.
var MethodNames = []string{"reliability", "propagation", "diffusion", "inedge", "pathcount"}

// Suite caches the scenario worlds and their query graphs so the
// individual experiments don't repeat the integration work.
type Suite struct {
	Opts Options

	World12 *synth.World
	World3  *synth.World

	// Graphs12[i] is the query graph for synth.Table1[i]; Graphs3[i] for
	// synth.Table3[i].
	Graphs12 []*graph.QueryGraph
	Graphs3  []*graph.QueryGraph
}

// NewSuite builds the worlds and runs all exploratory queries.
func NewSuite(opts Options) (*Suite, error) {
	s := &Suite{Opts: opts}
	s.World12 = synth.NewScenario12(opts.Seed)
	s.World3 = synth.NewScenario3(opts.Seed + 1)
	m12, err := s.World12.Mediator()
	if err != nil {
		return nil, err
	}
	for _, cs := range s.World12.Cases {
		qg, err := m12.Explore(cs.Protein)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario 1/2 %s: %w", cs.Protein, err)
		}
		s.Graphs12 = append(s.Graphs12, qg)
	}
	m3, err := s.World3.Mediator()
	if err != nil {
		return nil, err
	}
	for _, cs := range s.World3.Cases {
		qg, err := m3.Explore(cs.Protein)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario 3 %s: %w", cs.Protein, err)
		}
		s.Graphs3 = append(s.Graphs3, qg)
	}
	return s, nil
}

// methods returns fresh ranker instances with the given MC trial count.
func (s *Suite) methods(trials int, seed uint64) []rank.Ranker {
	return rank.Methods(trials, seed)
}

// relevanceSet turns a term list into a label set.
func relevanceSet(terms []bio.TermID) map[string]bool {
	out := make(map[string]bool, len(terms))
	for _, t := range terms {
		out[string(t)] = true
	}
	return out
}

// itemsFor assembles the metric items for one (graph, scores) pair,
// optionally excluding some answers from the ranked list (scenario 2
// evaluates rankings with the already-known functions removed).
func itemsFor(qg *graph.QueryGraph, scores []float64, relevant, exclude map[string]bool) []metrics.Item {
	items := make([]metrics.Item, 0, len(qg.Answers))
	for i, a := range qg.Answers {
		label := qg.Node(a).Label
		if exclude != nil && exclude[label] {
			continue
		}
		items = append(items, metrics.Item{
			Label:    label,
			Score:    scores[i],
			Relevant: relevant[label],
		})
	}
	return items
}

// apForItems computes tie-aware AP; it returns ok=false when the item
// list has no relevant entries (the case is skipped).
func apForItems(items []metrics.Item) (float64, bool) {
	k := 0
	for _, it := range items {
		if it.Relevant {
			k++
		}
	}
	if k == 0 {
		return 0, false
	}
	return metrics.AveragePrecision(items), true
}

// scenarioCase is one evaluation unit: a query graph plus the relevance
// and exclusion sets of the scenario.
type scenarioCase struct {
	Protein  string
	QG       *graph.QueryGraph
	Relevant map[string]bool
	Exclude  map[string]bool
}

// scenario1 returns the 20 cases with well-known functions relevant.
func (s *Suite) scenario1() []scenarioCase {
	var out []scenarioCase
	for i, cs := range s.World12.Cases {
		out = append(out, scenarioCase{
			Protein:  cs.Protein,
			QG:       s.Graphs12[i],
			Relevant: relevanceSet(cs.WellKnown),
		})
	}
	return out
}

// scenario2 returns the 3 cases with emerging functions relevant,
// evaluated on the candidate list with the already-known (iProClass)
// functions removed — the paper contrasts ranking of *new* knowledge.
func (s *Suite) scenario2() []scenarioCase {
	var out []scenarioCase
	for i, cs := range s.World12.Cases {
		if len(cs.Emerging) == 0 {
			continue
		}
		out = append(out, scenarioCase{
			Protein:  cs.Protein,
			QG:       s.Graphs12[i],
			Relevant: relevanceSet(cs.Emerging),
			Exclude:  relevanceSet(cs.WellKnown),
		})
	}
	return out
}

// scenario3 returns the 11 hypothetical-protein cases.
func (s *Suite) scenario3() []scenarioCase {
	var out []scenarioCase
	for i, cs := range s.World3.Cases {
		out = append(out, scenarioCase{
			Protein:  cs.Protein,
			QG:       s.Graphs3[i],
			Relevant: relevanceSet(cs.WellKnown),
		})
	}
	return out
}

func (s *Suite) scenarioCases(scenario int) ([]scenarioCase, error) {
	switch scenario {
	case 1:
		return s.scenario1(), nil
	case 2:
		return s.scenario2(), nil
	case 3:
		return s.scenario3(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown scenario %d", scenario)
	}
}

// randomAPOver returns mean/std of the random-ranking baseline across
// cases.
func randomAPOver(cases []scenarioCase) APStat {
	var aps []float64
	for _, c := range cases {
		k, n := 0, 0
		for _, a := range c.QG.Answers {
			label := c.QG.Node(a).Label
			if c.Exclude != nil && c.Exclude[label] {
				continue
			}
			n++
			if c.Relevant[label] {
				k++
			}
		}
		if k == 0 {
			continue
		}
		aps = append(aps, metrics.RandomAP(k, n))
	}
	return apStat(aps)
}
