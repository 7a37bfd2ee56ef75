package experiments

import (
	"context"
	"fmt"

	"biorank/internal/graph"
	"biorank/internal/metrics"
	"biorank/internal/prob"
	"biorank/internal/rank"
)

// Fig6Cell is one bar of a Figure 6 panel: AP after perturbing every
// input probability with log-odds noise of the given sigma, averaged
// over the scenario's proteins and m repetitions.
type Fig6Cell struct {
	Sigma float64
	AP    APStat
	// CI95 is the 95% confidence half-width over repetitions; the paper
	// reports these were "very narrow (0.001 to 0.022)".
	CI95 float64
}

// Fig6Panel is one of the nine panels (3 probabilistic methods x 3
// scenarios).
type Fig6Panel struct {
	Scenario int
	Method   string
	Cells    []Fig6Cell // sigma = 0 (default parameters), 0.5, 1, 2, 3
	RandomAP float64
	Paper    []float64 // paper means for default, 0.5, 1, 2, 3, random
}

// Fig6Sigmas are the paper's noise levels; sigma 0 is the unperturbed
// default.
var Fig6Sigmas = []float64{0, 0.5, 1, 2, 3}

// paperFig6 holds the paper's reported means [default, 0.5, 1, 2, 3,
// random] per (scenario, method).
var paperFig6 = map[[2]string][]float64{
	{"1", "reliability"}: {0.84, 0.86, 0.85, 0.80, 0.72, 0.42},
	{"1", "propagation"}: {0.85, 0.85, 0.85, 0.82, 0.78, 0.42},
	{"1", "diffusion"}:   {0.73, 0.74, 0.74, 0.72, 0.67, 0.42},
	{"2", "reliability"}: {0.46, 0.46, 0.46, 0.41, 0.34, 0.12},
	{"2", "propagation"}: {0.33, 0.35, 0.36, 0.33, 0.31, 0.12},
	{"2", "diffusion"}:   {0.62, 0.64, 0.63, 0.57, 0.46, 0.12},
	{"3", "reliability"}: {0.68, 0.67, 0.64, 0.60, 0.57, 0.29},
	{"3", "propagation"}: {0.62, 0.63, 0.62, 0.58, 0.58, 0.29},
	{"3", "diffusion"}:   {0.47, 0.50, 0.48, 0.44, 0.46, 0.29},
}

// probabilisticMethod builds the ranker for a Figure 6 panel;
// reliability uses reduced-graph Monte Carlo with the sensitivity trial
// count (the paper's benchmark method after its convergence analysis).
func (s *Suite) probabilisticMethod(name string, seed uint64) (rank.Ranker, error) {
	switch name {
	case "reliability":
		return &rank.MonteCarlo{Trials: s.Opts.SensitivityTrials, Seed: seed, Reduce: true}, nil
	case "propagation":
		return &rank.Propagation{}, nil
	case "diffusion":
		return &rank.Diffusion{}, nil
	default:
		return nil, fmt.Errorf("experiments: %q is not a probabilistic method", name)
	}
}

// Figure6 reproduces all nine sensitivity panels.
func (s *Suite) Figure6() ([]Fig6Panel, error) {
	var panels []Fig6Panel
	for scenario := 1; scenario <= 3; scenario++ {
		for _, method := range []string{"reliability", "propagation", "diffusion"} {
			p, err := s.Figure6Panel(scenario, method)
			if err != nil {
				return nil, err
			}
			panels = append(panels, p)
		}
	}
	return panels, nil
}

// Figure6Panel reproduces one sensitivity panel: multi-way perturbation
// of all node and edge probabilities, m repetitions per sigma.
func (s *Suite) Figure6Panel(scenario int, method string) (Fig6Panel, error) {
	cases, err := s.scenarioCases(scenario)
	if err != nil {
		return Fig6Panel{}, err
	}
	panel := Fig6Panel{
		Scenario: scenario,
		Method:   method,
		RandomAP: randomAPOver(cases).Mean,
		Paper:    paperFig6[[2]string{fmt.Sprintf("%d", scenario), method}],
	}
	for _, sigma := range Fig6Sigmas {
		repeats := s.Opts.Repeats
		if sigma == 0 {
			repeats = 1 // no noise: deterministic up to MC seed
		}
		var repMeans []float64
		var all []float64
		for rep := 0; rep < repeats; rep++ {
			seed := s.Opts.Seed*1e6 + uint64(scenario)*1e4 + uint64(rep)
			rng := prob.NewRNG(seed)
			ranker, err := s.probabilisticMethod(method, seed+500)
			if err != nil {
				return Fig6Panel{}, err
			}
			var aps []float64
			for _, c := range cases {
				qg := c.QG
				if sigma > 0 {
					qg = perturbGraph(rng, qg, sigma)
				}
				res, err := ranker.RankCtx(context.Background(), qg)
				if err != nil {
					return Fig6Panel{}, err
				}
				if ap, ok := apForItems(itemsFor(qg, res.Scores, c.Relevant, c.Exclude)); ok {
					aps = append(aps, ap)
				}
			}
			repMeans = append(repMeans, apStat(aps).Mean)
			all = append(all, aps...)
		}
		panel.Cells = append(panel.Cells, Fig6Cell{
			Sigma: sigma,
			AP:    apStat(all),
			CI95:  ci95(repMeans),
		})
	}
	return panel, nil
}

func ci95(xs []float64) float64 {
	return metrics.ConfidenceInterval95(xs)
}

// perturbGraph returns a copy of qg in which every node and edge
// probability has been perturbed with log-odds noise (the multi-way
// sensitivity method of Section 4).
func perturbGraph(rng *prob.RNG, qg *graph.QueryGraph, sigma float64) *graph.QueryGraph {
	out := qg.CloneShallowProbs()
	for i := 0; i < out.NumNodes(); i++ {
		id := graph.NodeID(i)
		if id == out.Source {
			continue // the query node is an artifact, not a parameter
		}
		out.SetNodeP(id, prob.PerturbLogOdds(rng, out.Node(id).P, sigma))
	}
	for i := 0; i < out.NumEdges(); i++ {
		id := graph.EdgeID(i)
		out.SetEdgeQ(id, prob.PerturbLogOdds(rng, out.Edge(id).Q, sigma))
	}
	return out
}
