package rank

import (
	"context"
	"sync"

	"biorank/internal/graph"
	"biorank/internal/kernel"
)

// MethodNames lists the five ranking semantics in the paper's display
// order, as the stable identifiers returned by Ranker.Name.
var MethodNames = []string{"reliability", "propagation", "diffusion", "inedge", "pathcount"}

// AllOptions configures a RankAllCtx pass: the estimator spec as flat
// fields (MCWorkers is Estimator.Workers; see Estimator for their
// meaning) plus the pass's method list, concurrency and shared plan.
type AllOptions struct {
	Trials    int
	Seed      uint64
	Exact     bool
	MCWorkers int
	Adaptive  bool
	TopK      int
	Planner   bool
	// Deprecated: ignored, as Estimator.Reduce is.
	Reduce bool
	// Deprecated: ignored, as Estimator.Worlds is.
	Worlds bool
	// Sequential disables the per-method parallelism, evaluating the five
	// semantics one after another. Scores are identical either way; the
	// flag exists for benchmarking and for callers that are already
	// saturating the CPU with query-level parallelism.
	Sequential bool
	// Methods restricts the pass to a subset of MethodNames; nil or empty
	// means all five.
	Methods []string
	// Plan optionally supplies a pre-compiled kernel plan for the query
	// graph. When nil, every method of the pass shares the graph's
	// memoized plan (kernel.PlanOf).
	Plan *kernel.Plan
}

// Estimator returns the pass's estimator spec.
func (o AllOptions) Estimator() Estimator {
	return Estimator{Trials: o.Trials, Seed: o.Seed, Exact: o.Exact, Workers: o.MCWorkers,
		Adaptive: o.Adaptive, TopK: o.TopK, Planner: o.Planner}
}

// UsesPlan reports whether the named method executes on a compiled
// kernel plan under these options (see Spec.UsesPlan).
func (o AllOptions) UsesPlan(name string) bool {
	s, err := o.Estimator().For(name)
	return err == nil && s.UsesPlan()
}

// RankAllCtx scores the answer set under all five relevance semantics
// (or the subset in o.Methods) in one pass over a single shared query
// graph. The graph is never copied or rebuilt between methods: every
// ranker reads the same pruned qg, and by default they run concurrently
// — the rankers only read the graph, so the pass is race-free. The
// result maps method name to its Result; scores are bit-identical to
// running each method alone. The Monte Carlo reliability estimators
// honor cancellation between batches and report truncated partial
// results (Result.Truncated); the deterministic methods finish in
// microseconds and run to completion regardless.
func RankAllCtx(ctx context.Context, qg *graph.QueryGraph, o AllOptions) (map[string]Result, error) {
	specs, err := o.Estimator().Specs(o.Methods)
	if err != nil {
		return nil, err
	}
	results, err := RankSpecs(ctx, qg, specs, o.Plan, o.Sequential)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Result, len(specs))
	for i, s := range specs {
		out[s.Method] = results[i]
	}
	return out, nil
}

// RankSpecs runs every spec over qg and returns the results in spec
// order, concurrently unless sequential. plan is shared by every spec
// that runs on one; when nil and some spec needs it, the pass shares
// qg's memoized plan (kernel.PlanOf), fetched once before the specs
// start so they do not race to compile it.
func RankSpecs(ctx context.Context, qg *graph.QueryGraph, specs []Spec, plan *kernel.Plan, sequential bool) ([]Result, error) {
	if err := validate(qg); err != nil {
		return nil, err
	}
	if plan == nil {
		for _, s := range specs {
			if s.UsesPlan() {
				plan = kernel.PlanOf(qg)
				break
			}
		}
	}
	results := make([]Result, len(specs))
	errs := make([]error, len(specs))
	if sequential {
		for i, s := range specs {
			results[i], errs[i] = s.Ranker(plan).RankCtx(ctx, qg)
		}
	} else {
		var wg sync.WaitGroup
		for i, s := range specs {
			wg.Add(1)
			go func(i int, r Ranker) {
				defer wg.Done()
				results[i], errs[i] = r.RankCtx(ctx, qg)
			}(i, s.Ranker(plan))
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// UnknownMethodError reports a method name outside MethodNames.
type UnknownMethodError struct{ Method string }

func (e *UnknownMethodError) Error() string {
	return "rank: unknown method \"" + e.Method + "\""
}
