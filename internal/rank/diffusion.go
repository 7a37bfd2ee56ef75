package rank

import (
	"context"
	"math"
	"sort"

	"biorank/internal/graph"
	"biorank/internal/kernel"
)

// Diffusion implements the diffusion semantics of Section 3.3 (Algorithm
// 3.3). Relevance "flows" from a node x to a neighbor y only while
// r(x) exceeds y's incoming diffusion level r̄(y), and incoming evidence
// accumulates additively rather than by inverse multiplication:
//
//	r̄(y) = Σ_{(x,y)∈E} max[(r(x) − r̄(y))·q(x,y), 0]
//	r(y)  = r̄(y) · p(y)
//
// The inner equation defines r̄(y) implicitly. The paper solves it with an
// inner iteration; we additionally provide an analytic solution (the
// right-hand side is piecewise linear and strictly decreasing in r̄(y), so
// the fixpoint is unique and can be found by sorting the contributing
// parents). Tests verify both agree.
//
// The default (analytic) mode executes on the compiled CSC kernel with
// an allocation-free inner solve; the Iterative mode runs the reference
// implementation.
type Diffusion struct {
	// Iterations fixes the number of outer rounds; 0 means automatic
	// (longest path length for DAGs, MaxIterations with early exit
	// otherwise).
	Iterations int
	// InnerIterations is used only with Iterative; 0 means 60, which is
	// ample at the paper's precision.
	InnerIterations int
	// Iterative selects the paper's fixed-point inner loop instead of the
	// analytic solve.
	Iterative bool
	// Tol is the convergence tolerance; 0 means DefaultTol.
	Tol float64
	// Plan optionally supplies a pre-compiled kernel plan for the query
	// graph (shared across the methods of a RankAllCtx pass).
	Plan *kernel.Plan
}

// parentContrib is one incoming-edge contribution to the inner solve.
type parentContrib struct{ r, q float64 }

// Name implements Ranker.
func (*Diffusion) Name() string { return "diffusion" }

// RankCtx implements Ranker. The fixpoint finishes in microseconds, so
// ctx is not consulted.
func (d *Diffusion) RankCtx(_ context.Context, qg *graph.QueryGraph) (Result, error) {
	if err := validate(qg); err != nil {
		return Result{}, err
	}
	if d.Iterative {
		return Result{Method: d.Name(), Scores: pickScores(qg, d.referenceScores(qg))}, nil
	}
	plan := planFor(qg, d.Plan)
	iters, tol, auto := d.schedule(plan.IsDAG(), plan.LongestFromSource())
	scores := make([]float64, plan.NumAnswers())
	plan.Diffusion(scores, iters, tol, auto)
	return Result{Method: d.Name(), Scores: scores}, nil
}

// schedule resolves the outer iteration count and tolerance exactly like
// Propagation.schedule.
func (d *Diffusion) schedule(isDAG bool, longest int) (iters int, tol float64, auto bool) {
	iters, tol = d.Iterations, d.Tol
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

// referenceScores is the original implementation of Algorithm 3.3,
// retained both as the Iterative execution path and as the oracle the
// compiled kernel is verified against.
func (d *Diffusion) referenceScores(qg *graph.QueryGraph) []float64 {
	iters, tol := d.Iterations, d.Tol
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

	var parents []parentContrib
	for t := 0; t < iters; t++ {
		delta := 0.0
		for y := 0; y < n; y++ {
			if graph.NodeID(y) == qg.Source {
				next[y] = 1
				continue
			}
			parents = parents[:0]
			for _, eid := range qg.In(graph.NodeID(y)) {
				e := qg.Edge(eid)
				if e.Q > 0 && r[e.From] > 0 {
					parents = append(parents, parentContrib{r: r[e.From], q: e.Q})
				}
			}
			var rbar float64
			if len(parents) > 0 {
				if d.Iterative {
					rbar = solveInnerIterative(parents, d.innerIters())
				} else {
					rbar = solveInnerAnalytic(parents)
				}
			}
			v := rbar * qg.Node(graph.NodeID(y)).P
			if dd := math.Abs(v - r[y]); dd > delta {
				delta = dd
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

func (d *Diffusion) innerIters() int {
	if d.InnerIterations > 0 {
		return d.InnerIterations
	}
	return 60
}

// solveInnerAnalytic finds the unique v ≥ 0 with
// v = Σ_i max((r_i − v)·q_i, 0). Sorting parents by descending r, the set
// of parents that actually contribute (those with r_i > v) is a prefix,
// and for the prefix 1..k the fixpoint candidate is
//
//	v = Σ_{i≤k} q_i·r_i / (1 + Σ_{i≤k} q_i).
//
// The correct prefix is the first whose candidate is at least the next
// parent's r (so the excluded parents really contribute nothing).
func solveInnerAnalytic(parents []parentContrib) float64 {
	sort.Slice(parents, func(i, j int) bool { return parents[i].r > parents[j].r })
	var sumQR, sumQ, v float64
	for k := 0; k < len(parents); k++ {
		sumQR += parents[k].q * parents[k].r
		sumQ += parents[k].q
		v = sumQR / (1 + sumQ)
		lower := 0.0
		if k+1 < len(parents) {
			lower = parents[k+1].r
		}
		if v >= lower {
			return v
		}
	}
	return v
}

// solveInnerIterative is the paper's inner fixed-point loop, iterating
// toward v = Σ max((r_i − v)·q_i, 0) from v = 0. The plain iteration
// oscillates when the active-set slope Σq_i exceeds 1, so we damp with
// α = 1/(1+Σq_i), which makes the update map a contraction (its slope
// lies in [0, 1−α]) and guarantees convergence to the unique fixpoint.
func solveInnerIterative(parents []parentContrib, iters int) float64 {
	sumQ := 0.0
	for _, p := range parents {
		sumQ += p.q
	}
	alpha := 1 / (1 + sumQ)
	v := 0.0
	for i := 0; i < iters; i++ {
		s := 0.0
		for _, p := range parents {
			if d := (p.r - v) * p.q; d > 0 {
				s += d
			}
		}
		v += alpha * (s - v)
	}
	return v
}
