package experiments

import (
	"context"
	"fmt"

	"biorank/internal/bio"
	"biorank/internal/graph"
	"biorank/internal/metrics"
	"biorank/internal/rank"
	"biorank/internal/synth"
)

// Table1Row is one row of Table 1: a golden protein, the size of its
// reference function set, the size of BioRank's answer set, and their
// ratio.
type Table1Row struct {
	Protein        string
	GoldenCount    int
	CandidateCount int
	Ratio          float64
}

// Table1 regenerates Table 1 from the scenario-1 world by actually
// running the exploratory queries and counting.
func (s *Suite) Table1() []Table1Row {
	var rows []Table1Row
	for i, cs := range s.World12.Cases {
		n := len(s.Graphs12[i].Answers)
		k := s.World12.Golden.Count(cs.Protein)
		rows = append(rows, Table1Row{
			Protein:        cs.Protein,
			GoldenCount:    k,
			CandidateCount: n,
			Ratio:          float64(k) / float64(n),
		})
	}
	return rows
}

// RankInterval is a 1-based best/worst possible rank under arbitrary tie
// breaking, as reported in Tables 2 and 3 (e.g. "34-97").
type RankInterval struct {
	Lo, Hi int
}

// String renders "lo-hi", or just "lo" when unique.
func (r RankInterval) String() string {
	if r.Lo == r.Hi {
		return fmt.Sprintf("%d", r.Lo)
	}
	return fmt.Sprintf("%d-%d", r.Lo, r.Hi)
}

// Mid is the expected rank under uniform tie breaking.
func (r RankInterval) Mid() float64 { return (float64(r.Lo) + float64(r.Hi)) / 2 }

// FunctionRanks is one row of Table 2 or 3: a function's rank interval
// under each of the five methods, plus the list size (the "Random"
// column's upper bound).
type FunctionRanks struct {
	Protein  string
	Function bio.TermID
	PubMedID string
	Ranks    map[string]RankInterval // keyed by method name
	ListSize int
}

// rankOf computes the rank interval of answer index i given all scores.
func rankOf(scores []float64, i int) RankInterval {
	lo, hi := metrics.RankInterval(scores, i)
	return RankInterval{Lo: lo, Hi: hi}
}

// functionRanks scores one query graph with all methods and extracts the
// rank intervals of the given functions.
func (s *Suite) functionRanks(qg caseGraph, funcs []bio.TermID, pubmed map[bio.TermID]string) ([]FunctionRanks, error) {
	perMethod := map[string][]float64{}
	for _, m := range s.methods(s.Opts.Trials, s.Opts.Seed) {
		res, err := m.RankCtx(context.Background(), qg.QG)
		if err != nil {
			return nil, err
		}
		perMethod[m.Name()] = res.Scores
	}
	idx := map[string]int{}
	for i, a := range qg.QG.Answers {
		idx[qg.QG.Node(a).Label] = i
	}
	var rows []FunctionRanks
	for _, f := range funcs {
		i, ok := idx[string(f)]
		if !ok {
			return nil, fmt.Errorf("experiments: function %s not in %s's answers", f, qg.Protein)
		}
		row := FunctionRanks{
			Protein:  qg.Protein,
			Function: f,
			Ranks:    map[string]RankInterval{},
			ListSize: len(qg.QG.Answers),
		}
		if pubmed != nil {
			row.PubMedID = pubmed[f]
		}
		for name, scores := range perMethod {
			row.Ranks[name] = rankOf(scores, i)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

type caseGraph struct {
	Protein string
	QG      *graph.QueryGraph
}

// Table2 regenerates Table 2: the ranks of the 7 emerging functions
// under the five methods.
func (s *Suite) Table2() ([]FunctionRanks, error) {
	pubmed := map[bio.TermID]string{}
	perProtein := map[string][]bio.TermID{}
	for _, e := range synth.Table2 {
		perProtein[e.Protein] = append(perProtein[e.Protein], e.Function)
		pubmed[e.Function] = e.PubMedID
	}
	var rows []FunctionRanks
	for i, cs := range s.World12.Cases {
		funcs := perProtein[cs.Protein]
		if len(funcs) == 0 {
			continue
		}
		r, err := s.functionRanks(caseGraph{Protein: cs.Protein, QG: s.Graphs12[i]}, funcs, pubmed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Table3 regenerates Table 3: the rank of each hypothetical protein's
// expert-assigned function under the five methods.
func (s *Suite) Table3() ([]FunctionRanks, error) {
	var rows []FunctionRanks
	for i, cs := range s.World3.Cases {
		r, err := s.functionRanks(
			caseGraph{Protein: cs.Protein, QG: s.Graphs3[i]},
			cs.WellKnown, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// MeanRank summarizes a set of rank rows for one method (the "Mean" row
// at the bottom of Tables 2 and 3), using interval midpoints.
func MeanRank(rows []FunctionRanks, method string) float64 {
	var mids []float64
	for _, r := range rows {
		if iv, ok := r.Ranks[method]; ok {
			mids = append(mids, iv.Mid())
		}
	}
	return metrics.Mean(mids)
}

// Figure4Row holds the five semantics' scores on one of the Figure 4
// micro graphs.
type Figure4Row struct {
	Graph  string
	Scores map[string]float64
}

// Figure4 evaluates the five semantics on the two illustration graphs of
// Figure 4 (values verified against the paper in internal/rank's tests).
func Figure4() ([]Figure4Row, error) {
	var rows []Figure4Row
	for _, g := range []struct {
		name string
		qg   *graph.QueryGraph
	}{
		{"serial-parallel (Fig 4a)", fig4aGraph()},
		{"Wheatstone bridge (Fig 4b)", fig4bGraph()},
	} {
		row := Figure4Row{Graph: g.name, Scores: map[string]float64{}}
		exact, _, err := rank.ExactReliability(g.qg, 0)
		if err != nil {
			return nil, err
		}
		row.Scores["reliability"] = exact[0]
		for _, m := range []rank.Ranker{&rank.Propagation{}, &rank.Diffusion{}, rank.InEdge{}, rank.PathCount{}} {
			res, err := m.RankCtx(context.Background(), g.qg)
			if err != nil {
				return nil, err
			}
			row.Scores[m.Name()] = res.Scores[0]
		}
		rows = append(rows, row)
	}
	return rows, nil
}
