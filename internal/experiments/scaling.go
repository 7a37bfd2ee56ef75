package experiments

import (
	"context"
	"fmt"
	"time"

	"biorank/internal/rank"
	"biorank/internal/synth"
)

// ScalingRow measures the reliability-evaluation strategies of Figure 8a
// on one generated graph size. This extension experiment explains the
// magnitude gap between our Figure 8 headline factors and the paper's:
// the traversal and reduction speedups grow with graph size and chain
// length, and our pipeline-built scenario graphs are ~3x smaller than
// the 2007 snapshots.
type ScalingRow struct {
	Nodes, Edges     int
	NaiveMS          float64
	TraversalMS      float64
	ReduceMCMS       float64
	TraversalSpeedup float64 // naive / traversal (paper: 3.4x on 520-node graphs)
	ReductionSpeedup float64 // naive / (reduce+MC) (paper: 13.4x)
	ElemReduction    float64 // fraction of nodes+edges removed (paper: 0.78)
}

// ScalingSizes are the default hit counts swept by Scaling.
var ScalingSizes = []int{50, 100, 200, 400, 800}

// Scaling sweeps generated query graphs of growing size and measures the
// Monte Carlo variants (1000 trials each, 3 chain hops to mimic long
// integration chains).
func (s *Suite) Scaling(sizes []int) ([]ScalingRow, error) {
	if len(sizes) == 0 {
		sizes = ScalingSizes
	}
	var rows []ScalingRow
	for _, hits := range sizes {
		spec := synth.GraphSpec{
			Hits:               hits,
			Answers:            hits / 2,
			AnnotationsPerGene: 3,
			ChainLen:           3,
		}
		qg := synth.RandomQueryGraph(s.Opts.Seed+uint64(hits), spec)
		row := ScalingRow{Nodes: qg.NumNodes(), Edges: qg.NumEdges()}

		// Best of three runs: single measurements are too noisy on a
		// contended machine.
		timeIt := func(r rank.Ranker) (float64, error) {
			best := 0.0
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				if _, err := r.RankCtx(context.Background(), qg); err != nil {
					return 0, err
				}
				ms := float64(time.Since(start).Microseconds()) / 1000
				if rep == 0 || ms < best {
					best = ms
				}
			}
			return best, nil
		}
		var err error
		if row.NaiveMS, err = timeIt(&rank.MonteCarlo{Trials: 1000, Seed: 1, Naive: true}); err != nil {
			return nil, fmt.Errorf("scaling %d: %w", hits, err)
		}
		if row.TraversalMS, err = timeIt(&rank.MonteCarlo{Trials: 1000, Seed: 1}); err != nil {
			return nil, err
		}
		if row.ReduceMCMS, err = timeIt(&rank.MonteCarlo{Trials: 1000, Seed: 1, Reduce: true}); err != nil {
			return nil, err
		}
		if row.TraversalMS > 0 {
			row.TraversalSpeedup = row.NaiveMS / row.TraversalMS
		}
		if row.ReduceMCMS > 0 {
			row.ReductionSpeedup = row.NaiveMS / row.ReduceMCMS
		}
		_, stats := rank.Reduce(qg)
		row.ElemReduction = stats.ElemReduction()
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderScaling renders the scaling study.
func RenderScaling(rows []ScalingRow) string {
	out := "Scaling — Monte Carlo strategies vs. graph size (1000 trials, chain length 3)\n"
	out += fmt.Sprintf("%8s %8s %10s %10s %10s %10s %10s %10s\n",
		"nodes", "edges", "naive ms", "trav ms", "r&mc ms", "trav x", "red x", "reduction")
	for _, r := range rows {
		out += fmt.Sprintf("%8d %8d %10.2f %10.2f %10.2f %9.1fx %9.1fx %9.0f%%\n",
			r.Nodes, r.Edges, r.NaiveMS, r.TraversalMS, r.ReduceMCMS,
			r.TraversalSpeedup, r.ReductionSpeedup, 100*r.ElemReduction)
	}
	return out
}
