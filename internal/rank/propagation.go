package rank

import (
	"context"
	"math"

	"biorank/internal/graph"
	"biorank/internal/kernel"
)

// Propagation implements the relevance-propagation semantics of Section
// 3.2 (Algorithm 3.2). Relevance flows from the query node along edges,
// treating all incoming paths as independent:
//
//	r(y) = (1 − ∏_{(x,y)∈E} (1 − r(x)·q(x,y))) · p(y)
//
// with r(s) fixed at 1. On trees rooted at the source this coincides with
// reliability (Proposition 3.1); on general graphs it is an upper bound
// because shared sub-paths are double counted, and on cyclic graphs it
// unfolds cycles into infinitely many "independent" paths, boosting
// scores.
//
// RankCtx executes on the compiled CSC kernel (internal/kernel), which
// walks in-edges in the same order as the reference loop — scores are
// bit-identical to referenceScores, which tests pin.
type Propagation struct {
	// Iterations fixes the number of synchronous update rounds. 0 means
	// automatic: the longest path length from the source for DAGs (the
	// exact fixpoint, as observed in Section 3.2), or MaxIterations for
	// cyclic graphs with early exit on convergence.
	Iterations int
	// Tol is the convergence tolerance for cyclic graphs; 0 means
	// DefaultTol.
	Tol float64
	// Plan optionally supplies a pre-compiled kernel plan for the query
	// graph (shared across the methods of a RankAllCtx pass).
	Plan *kernel.Plan

	memo PlanMemo
}

// MaxIterations caps the iteration count on cyclic graphs.
const MaxIterations = 1000

// DefaultTol is the convergence tolerance for iterative semantics.
const DefaultTol = 1e-12

// Name implements Ranker.
func (*Propagation) Name() string { return "propagation" }

// RankCtx implements Ranker. The fixpoint finishes in microseconds, so
// ctx is not consulted.
func (p *Propagation) RankCtx(_ context.Context, qg *graph.QueryGraph) (Result, error) {
	if err := validate(qg); err != nil {
		return Result{}, err
	}
	plan := p.memo.For(qg, p.Plan)
	iters, tol, auto := p.schedule(plan.IsDAG(), plan.LongestFromSource())
	scores := make([]float64, plan.NumAnswers())
	plan.Propagation(scores, iters, tol, auto)
	return Result{Method: p.Name(), Scores: scores}, nil
}

// schedule resolves the iteration count and tolerance: explicit settings
// win; otherwise DAGs run exactly to their fixpoint depth and cyclic
// graphs iterate to convergence under MaxIterations.
func (p *Propagation) schedule(isDAG bool, longest int) (iters int, tol float64, auto bool) {
	iters, tol = p.Iterations, p.Tol
	if tol <= 0 {
		tol = DefaultTol
	}
	auto = iters <= 0
	if auto {
		if isDAG {
			iters = longest
		} else {
			iters = MaxIterations
		}
	}
	return iters, tol, auto
}

// referenceScores is the original slice-of-slices implementation of
// Algorithm 3.2, retained as the oracle the compiled kernel is verified
// against (TestKernelPropagationMatchesReference).
func (p *Propagation) referenceScores(qg *graph.QueryGraph) []float64 {
	iters, tol := p.Iterations, p.Tol
	if tol <= 0 {
		tol = DefaultTol
	}
	auto := iters <= 0
	if auto {
		if l, err := qg.LongestPathFrom(qg.Source); err == nil {
			iters = l
		} else {
			iters = MaxIterations
		}
	}
	n := qg.NumNodes()
	r := make([]float64, n)
	next := make([]float64, n)
	r[qg.Source] = 1
	for t := 0; t < iters; t++ {
		delta := 0.0
		for y := 0; y < n; y++ {
			if graph.NodeID(y) == qg.Source {
				next[y] = 1
				continue
			}
			miss := 1.0
			for _, eid := range qg.In(graph.NodeID(y)) {
				e := qg.Edge(eid)
				miss *= 1 - r[e.From]*e.Q
			}
			v := (1 - miss) * qg.Node(graph.NodeID(y)).P
			if d := math.Abs(v - r[y]); d > delta {
				delta = d
			}
			next[y] = v
		}
		r, next = next, r
		if auto && delta < tol {
			break
		}
	}
	return r
}

// PropagationExact computes the propagation fixpoint of a DAG in a single
// topological pass; it equals Algorithm 3.2 run to convergence and exists
// to cross-check the iterative algorithm in tests. It returns
// graph.ErrCyclic on cyclic graphs.
func PropagationExact(qg *graph.QueryGraph) ([]float64, error) {
	order, err := qg.TopoSort()
	if err != nil {
		return nil, err
	}
	r := make([]float64, qg.NumNodes())
	r[qg.Source] = 1
	for _, y := range order {
		if y == qg.Source {
			continue
		}
		miss := 1.0
		for _, eid := range qg.In(y) {
			e := qg.Edge(eid)
			miss *= 1 - r[e.From]*e.Q
		}
		r[y] = (1 - miss) * qg.Node(y).P
	}
	return r, nil
}
