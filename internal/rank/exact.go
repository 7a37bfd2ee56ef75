package rank

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"biorank/internal/graph"
)

// This file implements the "tractable closed solution" of Section 3.1.3
// and an exact fallback. For each target node individually we:
//
//  1. Reify node failures into edge failures (a node v with p(v)<1 is
//     split into v_in → v_out with an edge of probability p(v)), the
//     standard reduction the paper cites for the generalized source-
//     target reliability problem.
//  2. Apply the reduction rules of Section 3.1.2 to fixpoint.
//  3. If the graph has fully reduced (no uncertain edges remain, or a
//     single s→t edge), read off the reliability — this is the paper's
//     closed solution, available exactly when the schema is reducible in
//     the sense of Theorem 3.2.
//  4. Otherwise fall back to the factoring (conditioning) method: pick an
//     uncertain edge e and recurse on both worlds,
//     R = q(e)·R[e present] + (1−q(e))·R[e absent], re-reducing at every
//     step. This computes the exact value on irreducible graphs (e.g.
//     the Wheatstone bridge of Fig. 2c) at exponential worst-case cost,
//     which the ConditioningBudget caps.
//
// The factoring recursion allocates nothing in steady state: branch
// copies are sync.Pool'd arenas whose backing arrays are reused across
// conditioning steps, the immutable kind/label metadata is shared by
// every branch of a target's recursion tree, and the present branch is
// factored in place (setting q(e)=1 is the whole edit) so only the
// absent branch needs a copy at all.

// ErrBudgetExhausted is returned when exact evaluation needs more
// factoring steps than allowed (the graph is far from reducible).
var ErrBudgetExhausted = errors.New("rank: exact reliability conditioning budget exhausted")

// Exact computes reliability scores exactly.
type Exact struct {
	// ConditioningBudget caps the total number of factoring subproblems
	// per target; 0 means DefaultConditioningBudget.
	ConditioningBudget int
}

// DefaultConditioningBudget bounds factoring recursion per target.
const DefaultConditioningBudget = 1 << 20

// NoFactoring, passed as a conditioning budget, disables factoring
// entirely: evaluation applies the Section 3.1.2 reductions to fixpoint
// and fails with ErrBudgetExhausted the moment a target would need its
// first conditioning step, without burning any factoring work. This is
// the budget ClosedForm and the HybridPlanner's pure closed-form mode
// probe with. (A budget of 0 still means DefaultConditioningBudget.)
const NoFactoring = -1

// Name implements Ranker.
func (Exact) Name() string { return "reliability-exact" }

// RankCtx implements Ranker; ctx is not consulted. The result carries
// zero-width confidence intervals (Lo = Hi = Scores) and an all-true
// Exact marker: exact scores are their own bounds.
func (e Exact) RankCtx(_ context.Context, qg *graph.QueryGraph) (Result, error) {
	if err := validate(qg); err != nil {
		return Result{}, err
	}
	scores, _, err := ExactReliability(qg, e.budget())
	if err != nil {
		return Result{}, err
	}
	exact := make([]bool, len(scores))
	for i := range exact {
		exact[i] = true
	}
	return Result{
		Method: e.Name(),
		Scores: scores,
		Lo:     append([]float64(nil), scores...),
		Hi:     append([]float64(nil), scores...),
		Exact:  exact,
	}, nil
}

func (e Exact) budget() int {
	if e.ConditioningBudget > 0 {
		return e.ConditioningBudget
	}
	return DefaultConditioningBudget
}

// ExactReliability returns the exact reliability of every answer node,
// together with the number of factoring (conditioning) steps each target
// required. A count of zero means the subgraph to that target was fully
// reducible and the score is the paper's closed solution. A budget of 0
// means DefaultConditioningBudget; NoFactoring (or any negative budget)
// forbids conditioning altogether, so the call fails fast on the first
// target that is not closed-form reducible.
func ExactReliability(qg *graph.QueryGraph, budget int) (scores []float64, conditionings []int, err error) {
	if budget == 0 {
		budget = DefaultConditioningBudget
	} else if budget < 0 {
		budget = NoFactoring
	}
	scores = make([]float64, len(qg.Answers))
	conditionings = make([]int, len(qg.Answers))
	for i, t := range qg.Answers {
		s, c, err := exactTarget(qg, t, budget)
		if err != nil {
			return nil, nil, fmt.Errorf("target %s/%s: %w",
				qg.Node(t).Kind, qg.Node(t).Label, err)
		}
		scores[i] = s
		conditionings[i] = c
	}
	return scores, conditionings, nil
}

// ClosedForm attempts the closed solution of Section 3.1.3 for every
// answer: it succeeds for a target iff its source-target subgraph fully
// reduces without factoring. reducible[i] reports whether answer i was
// solved purely by reductions; when it is false, scores[i] is zero and
// meaningless — the probe refuses to spend factoring work, it does not
// fall back to it. (Callers that want exact values for irreducible
// answers too should use ExactReliability or the HybridPlanner.)
func ClosedForm(qg *graph.QueryGraph) (scores []float64, reducible []bool, err error) {
	if err := validate(qg); err != nil {
		return nil, nil, err
	}
	scores = make([]float64, len(qg.Answers))
	reducible = make([]bool, len(qg.Answers))
	for i, t := range qg.Answers {
		s, _, err := exactTarget(qg, t, NoFactoring)
		if errors.Is(err, ErrBudgetExhausted) {
			continue // not closed-form reducible; zero steps were spent
		}
		if err != nil {
			return nil, nil, fmt.Errorf("target %s/%s: %w",
				qg.Node(t).Kind, qg.Node(t).Label, err)
		}
		scores[i] = s
		reducible[i] = true
	}
	return scores, reducible, nil
}

// exactTarget computes the exact reliability of a single target.
func exactTarget(qg *graph.QueryGraph, t graph.NodeID, budget int) (float64, int, error) {
	if t == qg.Source {
		return qg.Node(t).P, 0, nil
	}
	rg := reify(qg, t)
	steps := 0
	v, err := solveFactoring(rg, budget, &steps)
	releaseRedGraph(rg)
	return v, steps, err
}

// redGraphPool recycles reduction arenas across targets and factoring
// branches. Arenas are reset by cloneInto (which overwrites every field)
// or resetForReify (which truncates them), so a pooled arena carries no
// state into its next life beyond backing-array capacity.
var redGraphPool = sync.Pool{New: func() any { return new(redGraph) }}

func borrowRedGraph() *redGraph { return redGraphPool.Get().(*redGraph) }

func releaseRedGraph(rg *redGraph) { redGraphPool.Put(rg) }

// resetForReify truncates an arena for reuse as a fresh reification
// graph. kind/label may alias another arena's metadata after cloneInto;
// they are only kept when owned.
func (rg *redGraph) resetForReify() {
	rg.alive = rg.alive[:0]
	rg.p = rg.p[:0]
	if rg.ownsMeta {
		rg.kind = rg.kind[:0]
		rg.label = rg.label[:0]
	} else {
		rg.kind, rg.label = nil, nil
		rg.ownsMeta = true
	}
	rg.in = rg.in[:0]
	rg.out = rg.out[:0]
	rg.eAlive = rg.eAlive[:0]
	rg.eFrom = rg.eFrom[:0]
	rg.eTo = rg.eTo[:0]
	rg.eQ = rg.eQ[:0]
	rg.src = -1
	rg.isTarget = rg.isTarget[:0]
}

// growAdj extends an adjacency list by one empty entry, reclaiming the
// inner slice retained in the backing array when capacity allows.
func growAdj(s [][]int32) [][]int32 {
	if len(s) < cap(s) {
		s = s[: len(s)+1 : cap(s)]
		s[len(s)-1] = s[len(s)-1][:0]
		return s
	}
	return append(s, nil)
}

// reify builds a single-target reduction graph in which every node
// probability has been moved onto an edge, so the factoring recursion
// only has to condition on edges. The returned arena is pooled; the
// caller must releaseRedGraph it when done.
func reify(qg *graph.QueryGraph, t graph.NodeID) *redGraph {
	n := qg.NumNodes()
	rg := borrowRedGraph()
	rg.resetForReify()
	// inID/outID: the reified entry and exit node for each original node.
	inID := make([]int32, n)
	outID := make([]int32, n)
	// Reified graphs are internal to the factoring recursion and never
	// exported, so no kind/label metadata is built for them (the old
	// per-call label+"#in"/"#out" concatenations dominated the
	// evaluator's allocation profile); rg.kind and rg.label stay empty.
	addNode := func() int32 {
		id := int32(len(rg.alive))
		rg.alive = append(rg.alive, true)
		rg.p = append(rg.p, 1)
		rg.in = growAdj(rg.in)
		rg.out = growAdj(rg.out)
		rg.isTarget = append(rg.isTarget, false)
		return id
	}
	for i := 0; i < n; i++ {
		nd := qg.Node(graph.NodeID(i))
		if nd.P >= 1 {
			id := addNode()
			inID[i], outID[i] = id, id
		} else {
			a := addNode()
			b := addNode()
			rg.addEdge(a, b, nd.P)
			inID[i], outID[i] = a, b
		}
	}
	for i := 0; i < qg.NumEdges(); i++ {
		e := qg.Edge(graph.EdgeID(i))
		rg.addEdge(outID[e.From], inID[e.To], e.Q)
	}
	rg.src = inID[qg.Source]
	rg.isTarget[outID[t]] = true
	return rg
}

// cloneInto copies rg's mutable state into dst (typically a pooled
// arena), reusing dst's backing arrays. The kind/label metadata is
// shared, not copied: no reduction or factoring step rewrites node
// metadata after reify, so every branch of a recursion tree aliases the
// root arena's immutable copy. The root outlives all its branches
// (exactTarget releases it last), so the alias can never dangle.
func (rg *redGraph) cloneInto(dst *redGraph) *redGraph {
	dst.alive = append(dst.alive[:0], rg.alive...)
	dst.p = append(dst.p[:0], rg.p...)
	dst.kind, dst.label, dst.ownsMeta = rg.kind, rg.label, false
	dst.in = copyAdj(dst.in, rg.in)
	dst.out = copyAdj(dst.out, rg.out)
	dst.eAlive = append(dst.eAlive[:0], rg.eAlive...)
	dst.eFrom = append(dst.eFrom[:0], rg.eFrom...)
	dst.eTo = append(dst.eTo[:0], rg.eTo...)
	dst.eQ = append(dst.eQ[:0], rg.eQ...)
	dst.src = rg.src
	dst.isTarget = append(dst.isTarget[:0], rg.isTarget...)
	return dst
}

// copyAdj copies src's adjacency lists into dst, reusing both the outer
// and the retained inner backing arrays.
func copyAdj(dst, src [][]int32) [][]int32 {
	if cap(dst) < len(src) {
		nd := make([][]int32, len(src))
		copy(nd, dst[:cap(dst)]) // keep old inner arrays for reuse
		dst = nd
	} else {
		dst = dst[:len(src):cap(dst)]
	}
	for i := range src {
		dst[i] = append(dst[i][:0], src[i]...)
	}
	return dst
}

// target returns the single live target, or -1.
func (rg *redGraph) target() int32 {
	for i, isT := range rg.isTarget {
		if isT && rg.alive[i] {
			return int32(i)
		}
	}
	return -1
}

// pickUncertainEdge chooses the edge to condition on: prefer an uncertain
// edge leaving the source (conditioning near the source lets pruning
// collapse whole subgraphs), else any uncertain edge.
func (rg *redGraph) pickUncertainEdge() int32 {
	for _, e := range rg.liveOut(rg.src) {
		if rg.eQ[e] > 0 && rg.eQ[e] < 1 {
			return e
		}
	}
	for id := range rg.eAlive {
		if rg.eAlive[id] && rg.eQ[id] > 0 && rg.eQ[id] < 1 {
			return int32(id)
		}
	}
	return -1
}

func solveFactoring(rg *redGraph, budget int, steps *int) (float64, error) {
	rg.run()
	t := rg.target()
	if t < 0 || !rg.alive[rg.src] {
		return 0, nil
	}
	e := rg.pickUncertainEdge()
	if e < 0 {
		// All live edges are certain and the target survived pruning,
		// hence it is reachable with probability 1.
		return 1, nil
	}
	// Special case: the reduced graph is exactly one uncertain edge s→t.
	if rg.eFrom[e] == rg.src && rg.eTo[e] == t && rg.liveEdgeCount() == 1 {
		return rg.eQ[e], nil
	}
	// From here on a conditioning step is unavoidable. In no-factoring
	// mode that is exactly the signal the caller wants — reported before
	// any budget is burned or branch copied.
	if budget == NoFactoring {
		return 0, ErrBudgetExhausted
	}
	*steps++
	if *steps > budget {
		return 0, ErrBudgetExhausted
	}
	q := rg.eQ[e]
	// Factor on e. The absent branch runs on a pooled scratch copy; the
	// present branch then reuses rg in place — setting q(e)=1 is the
	// whole edit, and nothing reads rg after its recursion returns, so
	// no second copy (and no undo) is needed.
	absent := rg.cloneInto(borrowRedGraph())
	absent.killEdge(e)
	ra, err := solveFactoring(absent, budget, steps)
	releaseRedGraph(absent)
	if err != nil {
		return 0, err
	}
	rg.eQ[e] = 1
	rp, err := solveFactoring(rg, budget, steps)
	if err != nil {
		return 0, err
	}
	return q*rp + (1-q)*ra, nil
}

func (rg *redGraph) liveEdgeCount() int {
	n := 0
	for _, a := range rg.eAlive {
		if a {
			n++
		}
	}
	return n
}
