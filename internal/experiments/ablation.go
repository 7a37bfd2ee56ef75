package experiments

import (
	"context"
	"fmt"

	"biorank/internal/mediator"
	"biorank/internal/rank"
	"biorank/internal/synth"
)

// AblationRow reports ranking quality with one integration path removed:
// which of the Figure 1 evidence paths (direct gene curation, BLAST
// homology, profile databases) carries how much of BioRank's ranking
// power. This is an extension beyond the paper's own experiments,
// exercising the design choice its Section 2 motivates: integrating
// several redundant sources.
type AblationRow struct {
	Variant   string
	Scenario1 APStat // AP on well-known functions
	Scenario2 APStat // AP on emerging functions
	// GoldenCoverage is the fraction of golden functions that appear in
	// the answer set at all — starved variants rank precisely but
	// retrieve little.
	GoldenCoverage float64
	AvgGraph       Stats
}

// Stats is an average graph size.
type Stats struct {
	Nodes, Edges float64
}

// ablationVariants enumerates the path toggles.
func ablationVariants() []struct {
	name   string
	mutate func(*mediator.Config)
} {
	return []struct {
		name   string
		mutate func(*mediator.Config)
	}{
		{"full integration", func(*mediator.Config) {}},
		{"no BLAST path", func(c *mediator.Config) { c.DisableBlast = true }},
		{"no profile DBs", func(c *mediator.Config) { c.DisableProfiles = true }},
		{"no direct gene link", func(c *mediator.Config) { c.DisableGeneLink = true }},
		{"direct link only", func(c *mediator.Config) {
			c.DisableBlast = true
			c.DisableProfiles = true
		}},
	}
}

// Ablation measures AP across integration variants. It rebuilds the
// query graphs per variant (the toggles change what the mediator
// materializes) but reuses the suite's world, so the underlying data is
// identical across variants.
func (s *Suite) Ablation() ([]AblationRow, error) {
	var rows []AblationRow
	for _, v := range ablationVariants() {
		cfg := s.World12.Config
		v.mutate(&cfg)
		world := &synth.World{
			Registry: s.World12.Registry,
			Golden:   s.World12.Golden,
			Cases:    s.World12.Cases,
			Config:   cfg,
		}
		med, err := world.Mediator()
		if err != nil {
			return nil, err
		}
		mc := &rank.MonteCarlo{Trials: s.Opts.Trials, Seed: s.Opts.Seed, Reduce: true}
		var aps1, aps2 []float64
		var stats Stats
		graphs := 0
		goldenFound, goldenTotal := 0, 0
		for _, cs := range world.Cases {
			goldenTotal += len(cs.WellKnown)
			qg, err := med.Explore(cs.Protein)
			if err != nil {
				// A variant can disconnect a protein entirely (e.g. no
				// direct link and no homologs); count it as AP 0.
				aps1 = append(aps1, 0)
				continue
			}
			graphs++
			stats.Nodes += float64(qg.NumNodes())
			stats.Edges += float64(qg.NumEdges())
			present := map[string]bool{}
			for _, a := range qg.Answers {
				present[qg.Node(a).Label] = true
			}
			for _, f := range cs.WellKnown {
				if present[string(f)] {
					goldenFound++
				}
			}
			res, err := mc.RankCtx(context.Background(), qg)
			if err != nil {
				return nil, fmt.Errorf("ablation %s %s: %w", v.name, cs.Protein, err)
			}
			rel1 := relevanceSet(cs.WellKnown)
			if ap, ok := apForItems(itemsFor(qg, res.Scores, rel1, nil)); ok {
				aps1 = append(aps1, ap)
			}
			if len(cs.Emerging) > 0 {
				rel2 := relevanceSet(cs.Emerging)
				if ap, ok := apForItems(itemsFor(qg, res.Scores, rel2, relevanceSet(cs.WellKnown))); ok {
					aps2 = append(aps2, ap)
				}
			}
		}
		if graphs > 0 {
			stats.Nodes /= float64(graphs)
			stats.Edges /= float64(graphs)
		}
		coverage := 0.0
		if goldenTotal > 0 {
			coverage = float64(goldenFound) / float64(goldenTotal)
		}
		rows = append(rows, AblationRow{
			Variant:        v.name,
			Scenario1:      apStat(aps1),
			Scenario2:      apStat(aps2),
			GoldenCoverage: coverage,
			AvgGraph:       stats,
		})
	}
	return rows, nil
}

// RenderAblation renders the ablation study.
func RenderAblation(rows []AblationRow) string {
	out := "Ablation — reliability AP with integration paths removed\n"
	out += fmt.Sprintf("%-22s %10s %10s %10s %10s %10s\n",
		"Variant", "Sc1 AP", "Sc2 AP", "coverage", "avg nodes", "avg edges")
	for _, r := range rows {
		out += fmt.Sprintf("%-22s %10.2f %10.2f %9.0f%% %10.0f %10.0f\n",
			r.Variant, r.Scenario1.Mean, r.Scenario2.Mean, 100*r.GoldenCoverage,
			r.AvgGraph.Nodes, r.AvgGraph.Edges)
	}
	return out
}
