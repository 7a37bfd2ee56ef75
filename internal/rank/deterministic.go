package rank

import (
	"context"
	"fmt"

	"biorank/internal/graph"
)

// InEdge is the topological "cardinality" measure of Section 3.4
// (Lacroix et al.): the relevance of a target node is its number of
// incoming edges in the query graph. It ignores all probabilities and all
// structure beyond the target's immediate neighborhood; its scores are
// natural numbers, so ties abound.
type InEdge struct{}

// Name implements Ranker.
func (InEdge) Name() string { return "inedge" }

// RankCtx implements Ranker; counting in-edges needs no ctx.
func (InEdge) RankCtx(_ context.Context, qg *graph.QueryGraph) (Result, error) {
	if err := validate(qg); err != nil {
		return Result{}, err
	}
	scores := make([]float64, len(qg.Answers))
	for i, a := range qg.Answers {
		scores[i] = float64(qg.InDegree(a))
	}
	return Result{Method: InEdge{}.Name(), Scores: scores}, nil
}

// PathCount is the path-counting measure of Section 3.5: the relevance of
// a target is the number of distinct directed paths from the query node
// to it (parallel edges count as distinct paths). Unlike InEdge it
// measures connectivity of the whole subgraph between query and target,
// but it is only defined on DAGs — cycles yield infinitely many paths.
type PathCount struct{}

// Name implements Ranker.
func (PathCount) Name() string { return "pathcount" }

// ErrCyclicPathCount is returned when PathCount is applied to a cyclic
// graph.
var ErrCyclicPathCount = fmt.Errorf("rank: pathcount requires a DAG: %w", graph.ErrCyclic)

// RankCtx implements Ranker; the path count needs no ctx.
func (PathCount) RankCtx(_ context.Context, qg *graph.QueryGraph) (Result, error) {
	if err := validate(qg); err != nil {
		return Result{}, err
	}
	counts, err := CountPaths(qg)
	if err != nil {
		return Result{}, err
	}
	return Result{Method: PathCount{}.Name(), Scores: pickScores(qg, counts)}, nil
}

// CountPaths returns, for every node, the number of distinct directed
// paths from the source, computed by dynamic programming in topological
// order. Counts are returned as float64 because path counts grow
// exponentially with graph depth and ranking only needs their order.
func CountPaths(qg *graph.QueryGraph) ([]float64, error) {
	order, err := qg.TopoSort()
	if err != nil {
		return nil, ErrCyclicPathCount
	}
	counts := make([]float64, qg.NumNodes())
	counts[qg.Source] = 1
	for _, n := range order {
		if counts[n] == 0 {
			continue
		}
		for _, eid := range qg.Out(n) {
			counts[qg.Edge(eid).To] += counts[n]
		}
	}
	return counts, nil
}
