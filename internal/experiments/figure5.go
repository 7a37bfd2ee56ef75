package experiments

import (
	"context"
	"fmt"
)

// Fig5Row is one bar of a Figure 5 panel: a ranking method's AP across
// the scenario's proteins, next to the paper's reported mean.
type Fig5Row struct {
	Method string
	AP     APStat
	Paper  float64
}

// Fig5Panel is one of the three panels of Figure 5.
type Fig5Panel struct {
	Scenario    int
	Description string
	Rows        []Fig5Row // five methods followed by the random baseline
}

// paperFig5 holds the paper's reported means per scenario in MethodNames
// order plus random.
var paperFig5 = map[int][]float64{
	1: {0.84, 0.85, 0.73, 0.85, 0.87, 0.42},
	2: {0.46, 0.33, 0.62, 0.15, 0.16, 0.12},
	3: {0.68, 0.62, 0.48, 0.50, 0.50, 0.29},
}

var fig5Descriptions = map[int]string{
	1: "306 well-known functions, 20 well-studied proteins",
	2: "7 less-known functions, 3 well-studied proteins",
	3: "11 less-known functions, 11 less-studied proteins",
}

// Figure5 reproduces all three panels of Figure 5.
func (s *Suite) Figure5() ([]Fig5Panel, error) {
	var panels []Fig5Panel
	for scenario := 1; scenario <= 3; scenario++ {
		p, err := s.Figure5Scenario(scenario)
		if err != nil {
			return nil, err
		}
		panels = append(panels, p)
	}
	return panels, nil
}

// Figure5Scenario reproduces one panel.
func (s *Suite) Figure5Scenario(scenario int) (Fig5Panel, error) {
	cases, err := s.scenarioCases(scenario)
	if err != nil {
		return Fig5Panel{}, err
	}
	paper := paperFig5[scenario]
	panel := Fig5Panel{Scenario: scenario, Description: fig5Descriptions[scenario]}
	for mi, method := range s.methods(s.Opts.Trials, s.Opts.Seed) {
		var aps []float64
		for _, c := range cases {
			res, err := method.RankCtx(context.Background(), c.QG)
			if err != nil {
				return Fig5Panel{}, fmt.Errorf("scenario %d %s %s: %w", scenario, method.Name(), c.Protein, err)
			}
			if ap, ok := apForItems(itemsFor(c.QG, res.Scores, c.Relevant, c.Exclude)); ok {
				aps = append(aps, ap)
			}
		}
		panel.Rows = append(panel.Rows, Fig5Row{
			Method: method.Name(),
			AP:     apStat(aps),
			Paper:  paper[mi],
		})
	}
	panel.Rows = append(panel.Rows, Fig5Row{
		Method: "random",
		AP:     randomAPOver(cases),
		Paper:  paper[len(paper)-1],
	})
	return panel, nil
}
