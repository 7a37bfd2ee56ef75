package rank

import "biorank/internal/kernel"

// Estimator is the one declaration of how a ranking request is
// evaluated. The engine's Options and the facade's Options are aliases
// of it, biorankd decodes its wire form into it, and it reaches the
// rankers unchanged. DESIGN.md ("Estimator spec") tabulates which
// fields each estimator reads; For applies that table.
type Estimator struct {
	// Trials is the Monte Carlo budget: the trial count of the fixed
	// estimator (0 means DefaultTrials) and the per-candidate cap of the
	// adaptive, racer and planner estimators (0 means 10·DefaultTrials).
	Trials int
	// Seed makes the simulation reproducible.
	Seed uint64
	// Reduce is ignored: every sampled estimator For builds simulates the
	// full query graph on its one compiled plan. The paper's R&M
	// configuration (reductions, then simulation) is MonteCarlo.Reduce.
	//
	// Deprecated: ignored. Nothing reads it; it is kept only so callers
	// that still set it compile.
	Reduce bool
	// Exact computes reliability exactly instead of by simulation.
	Exact bool
	// Workers shards the fixed estimator's trials over that many
	// goroutines; scores are deterministic for a fixed (Seed, Workers).
	Workers int
	// Adaptive stops simulating once Theorem 3.1 certifies the observed
	// ranking (AdaptiveMonteCarlo).
	Adaptive bool
	// TopK races the answers and certifies only the top K (TopKRacer),
	// or sets the planner's K.
	TopK int
	// Worlds is ignored: every sampled estimator For builds already runs
	// on the 256-world block kernel.
	//
	// Deprecated: ignored. Nothing reads it; it is kept only so callers
	// that still set it compile.
	Worlds bool
	// Planner solves reducible answers exactly and races the rest
	// (HybridPlanner).
	Planner bool
}

// estimatorKind names what a Spec runs.
type estimatorKind uint8

const (
	kindFixed estimatorKind = iota
	kindAdaptive
	kindRacer
	kindPlanner
	kindExact
	kindPropagation
	kindDiffusion
	kindInEdge
	kindPathCount
)

// Spec is an Estimator resolved for one ranking method.
type Spec struct {
	// Method is the ranking method, one of MethodNames.
	Method string
	// Key is the estimator with every field the method does not read
	// zeroed. Equal (Method, Key) pairs produce bit-identical results on
	// the same query graph, which makes the pair the result-cache key.
	Key  Estimator
	kind estimatorKind
}

// For resolves e for one ranking method. It is the only place the
// reliability precedence Exact > Planner > TopK > Adaptive > fixed is
// written, and the only place that decides which fields a method reads:
// the deterministic methods read none. Every sampled estimator it
// resolves runs on the 256-world block kernel over the full query
// graph's compiled plan: the paper's estimator on a faster RNG stream,
// with budgets in whole 64-world words.
func (e Estimator) For(method string) (Spec, error) {
	s := Spec{Method: method}
	switch method {
	case "reliability":
		mc := Estimator{Trials: e.Trials, Seed: e.Seed}
		switch {
		case e.Exact:
			s.kind, s.Key = kindExact, Estimator{Exact: true}
		case e.Planner:
			mc.Planner, mc.TopK = true, e.TopK
			s.kind, s.Key = kindPlanner, mc
		case e.TopK > 0:
			mc.TopK = e.TopK
			s.kind, s.Key = kindRacer, mc
		case e.Adaptive:
			mc.Adaptive = true
			s.kind, s.Key = kindAdaptive, mc
		default:
			mc.Workers = e.Workers
			s.kind, s.Key = kindFixed, mc
		}
	case "propagation":
		s.kind = kindPropagation
	case "diffusion":
		s.kind = kindDiffusion
	case "inedge":
		s.kind = kindInEdge
	case "pathcount":
		s.kind = kindPathCount
	default:
		return Spec{}, &UnknownMethodError{Method: method}
	}
	return s, nil
}

// Specs resolves e for each of methods in order (see For); nil or
// empty methods means all five (MethodNames).
func (e Estimator) Specs(methods []string) ([]Spec, error) {
	if len(methods) == 0 {
		methods = MethodNames
	}
	specs := make([]Spec, len(methods))
	for i, name := range methods {
		s, err := e.For(name)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// UsesPlan reports whether the spec's ranker runs on a compiled kernel
// plan of the full query graph: every method but exact, inedge and
// pathcount does, so one plan serves every sampled request.
func (s Spec) UsesPlan() bool {
	switch s.kind {
	case kindExact, kindInEdge, kindPathCount:
		return false
	default:
		return true
	}
}

// Ranker builds the spec's ranker. plan, when non-nil and matching the
// query graph, skips compilation. The sampled rankers run on the block
// kernel; the scalar kernel is built only by callers that construct the
// estimator structs themselves (the paper reproductions and the
// reference tests).
func (s Spec) Ranker(plan *kernel.Plan) Ranker {
	k := s.Key
	switch s.kind {
	case kindFixed:
		return &MonteCarlo{Trials: k.Trials, Seed: k.Seed, Workers: k.Workers, Worlds: true, Plan: plan}
	case kindAdaptive:
		return &AdaptiveMonteCarlo{MaxTrials: k.Trials, Seed: k.Seed, Worlds: true, Plan: plan}
	case kindRacer:
		return &TopKRacer{K: k.TopK, MaxTrials: k.Trials, Seed: k.Seed, Worlds: true, Plan: plan}
	case kindPlanner:
		return &HybridPlanner{K: k.TopK, MaxTrials: k.Trials, Seed: k.Seed, Worlds: true, Plan: plan}
	case kindExact:
		return Exact{}
	case kindPropagation:
		return &Propagation{Plan: plan}
	case kindDiffusion:
		return &Diffusion{Plan: plan}
	case kindInEdge:
		return InEdge{}
	default:
		return PathCount{}
	}
}
