// Package biorank is a reproduction of "Integrating and Ranking Uncertain
// Scientific Data" (Detwiler, Gatterbauer, Louie, Suciu, Tarczy-Hornoch;
// UW-CSE-08-06-03 / ICDE 2009): a mediator-based data-integration system
// that models the uncertainty of scientific data as probabilities,
// represents integrated data as a probabilistic entity graph, answers
// exploratory queries, and ranks the answers by five relevance semantics —
// reliability, propagation, diffusion (probabilistic) and InEdge,
// PathCount (deterministic).
//
// This package is the public facade. Two entry points:
//
//   - NewDemoSystem / NewHypotheticalSystem build fully populated
//     synthetic integration worlds (the paper's evaluation scenarios) and
//     answer protein-function queries end to end;
//   - NewGraph lets callers assemble their own probabilistic entity graph
//     (Definition 2.1) and rank reachable answers directly.
//
// The heavy lifting lives in internal/: graph, er (mediated schema +
// Theorem 3.2), prob (uncertainty→probability transforms), bio, sources
// (the eleven databases plus BLAST-like and profile matchers), mediator,
// query, rank (the five semantics), metrics (tie-aware average
// precision), synth (scenario worlds) and experiments (every table and
// figure of the evaluation).
package biorank

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"biorank/internal/bio"
	"biorank/internal/engine"
	"biorank/internal/graph"
	"biorank/internal/kernel"
	"biorank/internal/mediator"
	"biorank/internal/metrics"
	"biorank/internal/query"
	"biorank/internal/rank"
	"biorank/internal/synth"
)

// Method selects a ranking semantics.
type Method string

// The five ranking methods of Section 3.
const (
	Reliability Method = "reliability"
	Propagation Method = "propagation"
	Diffusion   Method = "diffusion"
	InEdge      Method = "inedge"
	PathCount   Method = "pathcount"
)

// Methods lists all five ranking methods in the paper's display order.
func Methods() []Method {
	return []Method{Reliability, Propagation, Diffusion, InEdge, PathCount}
}

// Options tune ranking evaluation: the estimator spec (Trials, Seed,
// Exact, Workers, Adaptive, TopK, Planner), documented field by field
// on rank.Estimator, whose deprecated Worlds and Reduce fields are
// ignored. The zero value is the paper's 10,000-trial Monte Carlo
// reliability estimate on the 256-world block kernel over the full
// query graph, which rounds the budget up to whole 64-world words and
// so runs 10,048 worlds. DESIGN.md ("Estimator
// spec") gives the precedence among the estimator flags and the fields
// each estimator reads.
type Options = rank.Estimator

// Record identifies a record added to a Graph.
type Record = graph.NodeID

// Graph is a probabilistic entity graph under construction (Definition
// 2.1): records with presence probabilities connected by links with
// correctness probabilities.
type Graph struct {
	g *graph.Graph
}

// NewGraph returns an empty probabilistic entity graph.
func NewGraph() *Graph {
	return &Graph{g: graph.New(16, 32)}
}

// AddRecord adds a data record of the given entity set with probability
// p ∈ [0,1] that the record is correct.
func (g *Graph) AddRecord(kind, label string, p float64) Record {
	return g.g.AddNode(kind, label, p)
}

// AddLink adds a directed relationship instance with probability
// q ∈ [0,1] that the link is correct.
func (g *Graph) AddLink(from, to Record, q float64) {
	g.g.AddEdge(from, to, "link", q)
}

// Explore runs the exploratory query (inputKind.label = keyword,
// {outputKinds...}) of Definition 2.2 against the graph and returns the
// ranked answer set handle.
func (g *Graph) Explore(keyword, inputKind string, outputKinds ...string) (*Answers, error) {
	q := query.Exploratory{
		InputKind:   inputKind,
		Match:       func(n graph.Node) bool { return n.Label == keyword },
		OutputKinds: outputKinds,
		Keyword:     keyword,
	}
	qg, err := q.Run(g.g)
	if err != nil {
		return nil, err
	}
	return &Answers{qg: qg}, nil
}

// Answers is the answer set of an exploratory query, ready for ranking.
// The first ranking call compiles the query graph into a CSR kernel
// plan (internal/kernel) and memoizes it, so every later RankCtx or
// RankAllCtx call on the same Answers skips compilation and runs the
// simulation kernels directly.
type Answers struct {
	qg   *graph.QueryGraph
	plan rank.PlanMemo
}

// planFor returns the memoized compiled plan when one of specs runs on
// a plan, compiling on first use or after the underlying graph changed,
// and nil otherwise.
func (a *Answers) planFor(specs ...rank.Spec) *kernel.Plan {
	for _, s := range specs {
		if s.UsesPlan() {
			return a.plan.For(a.qg, nil)
		}
	}
	return nil
}

// Len returns the number of answers.
func (a *Answers) Len() int { return len(a.qg.Answers) }

// GraphSize returns the query graph's size (nodes, edges).
func (a *Answers) GraphSize() (nodes, edges int) {
	return a.qg.NumNodes(), a.qg.NumEdges()
}

// MarshalJSON serializes the underlying probabilistic query graph, so
// query results can be persisted and reloaded without re-running the
// integration.
func (a *Answers) MarshalJSON() ([]byte, error) {
	return a.qg.MarshalJSON()
}

// UnmarshalJSON reloads a previously serialized query graph.
func (a *Answers) UnmarshalJSON(data []byte) error {
	qg := &graph.QueryGraph{}
	if err := qg.UnmarshalJSON(data); err != nil {
		return err
	}
	a.qg = qg
	return nil
}

// DOT renders the query graph in Graphviz format for inspection.
func (a *Answers) DOT(name string) string {
	return a.qg.DOT(name)
}

// ScoredAnswer is one ranked answer: its identity, relevance score, and
// the 1-based rank interval it can occupy under tie breaking.
type ScoredAnswer struct {
	Kind  string
	Label string
	Score float64
	// RankLo and RankHi bound the answer's rank across tie-breakings
	// (equal when the score is unique).
	RankLo, RankHi int
	// Lo and Hi bound the true score when the estimator reports
	// per-answer uncertainty (the hybrid planner does; see HasBounds).
	// Exact answers have Lo == Score == Hi.
	Lo, Hi float64
	// HasBounds reports whether Lo/Hi are meaningful for this answer;
	// estimators without uncertainty reporting leave it false (and Lo/Hi
	// zero).
	HasBounds bool
	// Exact marks answers whose score was computed exactly (closed
	// solution or factoring) rather than estimated by simulation.
	Exact bool
}

// RankCtx scores every answer with the chosen method and returns them
// in descending score order (ties in input order). The Monte Carlo
// estimators check the context between simulation batches; when its
// deadline expires they return the ranking built from the trials
// completed so far — every answer still carries a valid confidence
// interval (HasBounds), just a wider one — and truncated reports that
// the budget was cut short rather than spent. Deterministic methods
// (InEdge, PathCount, exact reliability) ignore the deadline and always
// complete. A run that finishes before the deadline is bit-identical to
// one under context.Background() with the same seed, and truncated is
// false.
func (a *Answers) RankCtx(ctx context.Context, m Method, o Options) (answers []ScoredAnswer, truncated bool, err error) {
	spec, err := o.For(string(m))
	if err != nil {
		return nil, false, err
	}
	res, err := spec.Ranker(a.planFor(spec)).RankCtx(ctx, a.qg)
	if err != nil {
		return nil, false, err
	}
	return scoredAnswers(a.qg, res), res.Truncated, nil
}

// TopKAnswer is one certified top-k answer: its identity, score
// estimate, the confidence interval the racer held when it stopped, and
// how many Monte Carlo trials the candidate consumed.
type TopKAnswer struct {
	Kind  string
	Label string
	Score float64
	// Lo and Hi bound the true reliability at the racer's confidence
	// level (1−Delta, union-bounded over candidates and rounds).
	Lo, Hi float64
	// Trials is the number of simulation trials this candidate
	// participated in before the race ended.
	Trials int64
	// Exact marks answers the hybrid planner solved exactly (closed
	// solution or factoring); their interval is zero width and Trials is
	// 0. Always false without Options.Planner.
	Exact bool
}

// TopKResult is the outcome of a top-k race: the certified top k in
// descending score order plus the race telemetry.
type TopKResult struct {
	// Answers holds the top k (fewer when the answer set is smaller).
	Answers []TopKAnswer
	// Candidates is the size of the answer set that was raced.
	Candidates int
	// Trials is the total number of kernel simulation batches × batch
	// size the race ran (the surviving candidates' trial count).
	Trials int64
	// CandidateTrials sums trials over candidates — the racer's cost
	// metric; fixed-budget and adaptive simulation cost
	// trials × candidates by the same metric.
	CandidateTrials int64
	// Pruned counts candidates eliminated before the race ended; Rounds
	// counts simulation batches.
	Pruned, Rounds int
	// ExactAnswers counts candidates the hybrid planner solved exactly
	// (zero without Options.Planner).
	ExactAnswers int
	// Truncated reports that a context deadline cut the race short (see
	// TopKCtx): the returned answers are the best current estimates with
	// valid — but possibly vacuous [0,1] — confidence intervals, and the
	// top k is no longer certified.
	Truncated bool
}

// racer is a top-k race estimator: rank.TopKRacer, or rank.HybridPlanner
// under Options.Planner.
type racer interface {
	RankWithStatsCtx(ctx context.Context, qg *graph.QueryGraph) (rank.Result, rank.PlannerStats, error)
}

// TopK is TopKCtx under context.Background(), kept for callers that
// carry no context (the end-to-end benchmark's oracle).
func (a *Answers) TopK(k int, o Options) (*TopKResult, error) {
	return a.TopKCtx(context.Background(), k, o)
}

// TopKCtx races the answer set and returns the certified top k by
// reliability, with per-answer confidence bounds: candidates whose
// upper confidence bound falls below the k-th largest lower bound are
// successively eliminated, and the Monte Carlo kernel stops simulating
// the parts of the query graph only they needed. Options.Trials caps
// the per-candidate trial count; Options.Seed fixes the race
// deterministically. With Options.Planner the answers are first probed
// for exact evaluation: exact answers enter the race as zero-width
// intervals (Exact true, Trials 0) and only the irreducible remainder
// is simulated. For the full ranking (all answers, no bounds) use
// RankCtx or RankAllCtx.
//
// The racer checks the context between simulation rounds; on expiry it
// stops and returns the current standings with TopKResult.Truncated
// set — the answers are the best estimates so far, their Lo/Hi
// intervals remain valid (vacuous [0,1] for candidates that never
// simulated), but the top k is no longer certified. A race that
// finishes before the deadline is bit-identical to one under
// context.Background() with the same seed.
func (a *Answers) TopKCtx(ctx context.Context, k int, o Options) (*TopKResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("biorank: top-k rank requires k >= 1, got %d", k)
	}
	// A race: the racer, or the planner's race under Options.Planner.
	o.TopK, o.Exact = k, false
	spec, err := o.For(string(Reliability))
	if err != nil {
		return nil, err
	}
	res, ps, err := spec.Ranker(a.planFor(spec)).(racer).RankWithStatsCtx(ctx, a.qg)
	if err != nil {
		return nil, err
	}
	order := rank.ArgsortDesc(res.Scores)
	k = min(k, len(order))
	out := &TopKResult{
		Answers:         make([]TopKAnswer, k),
		Candidates:      len(res.Scores),
		Trials:          ps.Trials,
		CandidateTrials: ps.CandidateTrials(),
		Pruned:          ps.Pruned,
		Rounds:          ps.Rounds,
		ExactAnswers:    ps.ExactAnswers,
		Truncated:       res.Truncated,
	}
	// Result.Lo/Hi are the racer's running bounds, or the planner's
	// tighter intervals (zero-width for exact answers, Wilson for
	// estimated ones).
	for i := 0; i < k; i++ {
		idx := order[i]
		n := a.qg.Node(a.qg.Answers[idx])
		out.Answers[i] = TopKAnswer{
			Kind:   n.Kind,
			Label:  n.Label,
			Score:  res.Scores[idx],
			Lo:     res.Lo[idx],
			Hi:     res.Hi[idx],
			Trials: ps.TrialsPerCandidate[idx],
			Exact:  res.Exact != nil && res.Exact[idx],
		}
	}
	return out, nil
}

// RankAll is RankAllCtx under context.Background(), kept for callers
// that carry no context (the end-to-end benchmark's oracle).
func (a *Answers) RankAll(o Options, methods ...Method) (map[Method][]ScoredAnswer, error) {
	out, _, err := a.RankAllCtx(context.Background(), o, methods...)
	return out, err
}

// RankAllCtx scores every answer under the given semantics (all five
// when none are named) in one pass over the shared query graph — the
// graph is resolved and pruned exactly once, the methods run
// concurrently, and Monte Carlo trials can additionally be sharded via
// Options.Workers. Scores are identical to calling RankCtx once per
// method. Monte Carlo methods that hit the deadline return truncated
// partial rankings (flagged per method in the truncated map) while
// deterministic methods always complete; see RankCtx for the
// partial-result contract.
func (a *Answers) RankAllCtx(ctx context.Context, o Options, methods ...Method) (rankings map[Method][]ScoredAnswer, truncated map[Method]bool, err error) {
	names := make([]string, len(methods))
	for i, m := range methods {
		names[i] = string(m)
	}
	specs, err := o.Specs(names)
	if err != nil {
		return nil, nil, err
	}
	results, err := rank.RankSpecs(ctx, a.qg, specs, a.planFor(specs...), false)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[Method][]ScoredAnswer, len(results))
	trunc := make(map[Method]bool, len(results))
	for i, s := range specs {
		out[Method(s.Method)] = scoredAnswers(a.qg, results[i])
		trunc[Method(s.Method)] = results[i].Truncated
	}
	return out, trunc, nil
}

// scoredAnswers converts a ranking result into the sorted public
// representation, carrying the per-answer uncertainty payload through
// when the estimator reported one.
func scoredAnswers(qg *graph.QueryGraph, res rank.Result) []ScoredAnswer {
	scores := res.Scores
	hasBounds := len(res.Lo) == len(scores) && len(res.Hi) == len(scores)
	out := make([]ScoredAnswer, len(qg.Answers))
	for i, id := range qg.Answers {
		n := qg.Node(id)
		lo, hi := metrics.RankInterval(scores, i)
		out[i] = ScoredAnswer{Kind: n.Kind, Label: n.Label, Score: scores[i], RankLo: lo, RankHi: hi}
		if hasBounds {
			out[i].Lo, out[i].Hi = res.Lo[i], res.Hi[i]
			out[i].HasBounds = true
		}
		if len(res.Exact) == len(scores) {
			out[i].Exact = res.Exact[i]
		}
	}
	// Stable: ties keep answer order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// AveragePrecision computes the tie-aware average precision (Section 4)
// of a scored answer list against a relevance predicate.
func AveragePrecision(answers []ScoredAnswer, relevant func(label string) bool) float64 {
	items := make([]metrics.Item, len(answers))
	for i, a := range answers {
		items[i] = metrics.Item{Label: a.Label, Score: a.Score, Relevant: relevant(a.Label)}
	}
	return metrics.AveragePrecision(items)
}

// RandomAP is the expected average precision of a randomly ordered list
// with k relevant among n items (Definition 4.1) — the baseline every
// ranking method must beat.
func RandomAP(k, n int) float64 { return metrics.RandomAP(k, n) }

// System is a fully populated BioRank instance: eleven integrated
// sources behind a mediator, queried by protein name. Batched queries
// (QueryBatchCtx) run on an internal/engine worker pool with an LRU
// result cache; the pool is started lazily on first use and released by
// Close.
type System struct {
	world *synth.World
	med   *mediator.Mediator

	// live is non-nil after EnableLive: queries then resolve against
	// snapshots of a mutable union graph instead of re-integrating, and
	// Ingest applies source deltas with scoped cache invalidation.
	live atomic.Pointer[liveState]

	engOnce sync.Once
	eng     *engine.Engine

	engMu      sync.Mutex
	engCfg     engine.Config
	engStarted bool
}

// NewDemoSystem builds the synthetic world behind the paper's scenarios
// 1 and 2: the twenty well-studied proteins of Table 1 (ABCC8, CFTR,
// ...), with well-known, emerging and spurious candidate functions
// planted per the paper's counts.
func NewDemoSystem(seed uint64) (*System, error) {
	return newSystem(synth.NewScenario12(seed))
}

// NewHypotheticalSystem builds the scenario-3 world: the eleven
// hypothetical bacterial proteins of Table 3.
func NewHypotheticalSystem(seed uint64) (*System, error) {
	return newSystem(synth.NewScenario3(seed))
}

// NewFullSystem builds a compact world in which all eleven sources of
// the paper's Section 2 table are populated and integrated (EntrezGene,
// EntrezProtein, AmiGO, NCBIBlast, Pfam, TIGRFAM, UniProt, PIRSF, CDD,
// SuperFamily, PDB).
func NewFullSystem(seed uint64) (*System, error) {
	return newSystem(synth.NewExtendedWorld(seed))
}

// Sources lists the names of the data sources integrated by this
// system.
func (s *System) Sources() []string {
	return s.world.Registry.Names()
}

func newSystem(w *synth.World) (*System, error) {
	med, err := w.Mediator()
	if err != nil {
		return nil, err
	}
	return &System{world: w, med: med}, nil
}

// Proteins returns the query proteins the system knows about.
func (s *System) Proteins() []string {
	out := make([]string, len(s.world.Cases))
	for i, c := range s.world.Cases {
		out[i] = c.Protein
	}
	return out
}

// GoldenFunctions returns the reference (iProClass-style) functions of a
// protein — the golden standard used to evaluate rankings.
func (s *System) GoldenFunctions(protein string) []string {
	var out []string
	for _, t := range s.world.Golden.Functions(protein) {
		out = append(out, string(t))
	}
	return out
}

// EmergingFunctions returns the planted newly-discovered functions of a
// protein (empty for most).
func (s *System) EmergingFunctions(protein string) []string {
	for _, c := range s.world.Cases {
		if c.Protein == protein {
			out := make([]string, len(c.Emerging))
			for i, t := range c.Emerging {
				out[i] = string(t)
			}
			return out
		}
	}
	return nil
}

// Query runs the exploratory query (EntrezProtein.name = protein,
// {AmiGO}) end to end and returns the candidate-function answer set. In
// live mode (EnableLive) the query resolves against a snapshot of the
// live union graph, so it observes every delta ingested so far.
func (s *System) Query(protein string) (*Answers, error) {
	qg, err := s.resolve(protein)
	if err != nil {
		return nil, err
	}
	return &Answers{qg: qg}, nil
}

// resolve produces the protein's pruned query graph through whichever
// path is active: the live store snapshot or a fresh mediator
// integration.
func (s *System) resolve(protein string) (*graph.QueryGraph, error) {
	ls := s.live.Load()
	if ls == nil {
		return s.med.Explore(protein)
	}
	qg, err := ls.Carve(protein)
	if errors.Is(err, mediator.ErrNoProtein) {
		return nil, fmt.Errorf("biorank: no protein matches %q", protein)
	}
	return qg, err
}

// BatchRequest asks for one protein's answers ranked under one or more
// methods. A nil Methods slice means all five.
type BatchRequest struct {
	Protein string
	Methods []Method
	Options Options
	// Timeout, when positive, bounds this request's latency from
	// submission (queue time included). On expiry the Monte Carlo
	// methods return truncated partial rankings (BatchResult.Truncated)
	// instead of an error. It layers onto (never extends) any deadline
	// on the QueryBatchCtx context.
	Timeout time.Duration
}

// BatchResult is the outcome of one BatchRequest.
type BatchResult struct {
	Protein string
	// Err is non-nil when the query failed; the other fields are then
	// zero. One failed request never poisons the rest of the batch.
	Err error
	// Rankings maps each requested method to its sorted answers.
	Rankings map[Method][]ScoredAnswer
	// Cached records which methods were served from the engine's LRU.
	Cached map[Method]bool
	// Truncated records which methods were cut short by a deadline and
	// returned partial (but interval-valid) rankings. Truncated results
	// are never cached.
	Truncated map[Method]bool
	// Answers is the shared answer-set handle the methods were scored
	// on.
	Answers *Answers
}

// EngineConfig tunes the lazily started batch engine. The zero value
// keeps the historical defaults: GOMAXPROCS workers, the default LRU
// sizes, and no admission control.
type EngineConfig struct {
	// Workers is the worker-pool size; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize is the result-LRU capacity; 0 means the engine default,
	// negative disables caching.
	CacheSize int
	// MaxInFlight caps concurrently executing requests; 0 means the
	// worker count.
	MaxInFlight int
	// MaxQueue caps admitted requests waiting beyond the in-flight set.
	// When either MaxInFlight or MaxQueue is positive, requests beyond
	// capacity are shed with ErrOverloaded instead of queueing
	// unboundedly; with both zero the engine accepts everything.
	MaxQueue int
}

// ConfigureEngine sets the batch engine's configuration. It must be
// called before the engine lazily starts (first QueryBatchCtx,
// CacheStats, PlanStats, EngineStats or Close); afterwards it fails with
// an error and the running engine keeps its configuration.
func (s *System) ConfigureEngine(cfg EngineConfig) error {
	s.engMu.Lock()
	defer s.engMu.Unlock()
	if s.engStarted {
		return fmt.Errorf("biorank: engine already started; ConfigureEngine must precede the first QueryBatchCtx")
	}
	s.engCfg = engine.Config{
		Workers:     cfg.Workers,
		CacheSize:   cfg.CacheSize,
		MaxInFlight: cfg.MaxInFlight,
		MaxQueue:    cfg.MaxQueue,
	}
	return nil
}

// engineHandle lazily starts the worker-pool engine over the mediator.
func (s *System) engineHandle() *engine.Engine {
	s.engOnce.Do(func() {
		s.engMu.Lock()
		cfg := s.engCfg
		s.engStarted = true
		s.engMu.Unlock()
		s.eng = engine.New(engine.ResolverFunc(func(_ context.Context, p string) (*graph.QueryGraph, error) {
			return s.resolve(p)
		}), cfg)
	})
	return s.eng
}

// QueryBatchCtx answers a batch of ranking requests on the system's
// worker pool: each query graph is integrated once and shared by all
// requested methods, and results are memoized in an LRU keyed by query,
// graph fingerprint, method and options. Results arrive in request
// order. Cancelling ctx abandons queued requests (their Err is the
// context error), while a deadline — from ctx or a per-request Timeout
// — truncates in-progress Monte Carlo rankings into partial results
// (BatchResult.Truncated) rather than failing them. Requests shed by
// admission control (see ConfigureEngine) fail with an error matching
// ErrOverloaded; the suggested backoff is available via RetryAfter.
func (s *System) QueryBatchCtx(ctx context.Context, reqs []BatchRequest) []BatchResult {
	ereqs := make([]engine.Request, len(reqs))
	for i, r := range reqs {
		methods := make([]string, len(r.Methods))
		for j, m := range r.Methods {
			methods[j] = string(m)
		}
		ereqs[i] = engine.Request{
			Source:  r.Protein,
			Methods: methods,
			Timeout: r.Timeout,
			Options: r.Options,
		}
	}
	out := make([]BatchResult, len(reqs))
	for i, resp := range s.engineHandle().QueryBatchCtx(ctx, ereqs) {
		out[i] = BatchResult{Protein: resp.Source, Err: resp.Err}
		if resp.Err != nil {
			continue
		}
		out[i].Answers = &Answers{qg: resp.Graph}
		out[i].Rankings = make(map[Method][]ScoredAnswer, len(resp.Results))
		out[i].Cached = make(map[Method]bool, len(resp.Cached))
		out[i].Truncated = make(map[Method]bool, len(resp.Results))
		for name, res := range resp.Results {
			out[i].Rankings[Method(name)] = scoredAnswers(resp.Graph, res)
			out[i].Cached[Method(name)] = resp.Cached[name]
			out[i].Truncated[Method(name)] = res.Truncated
		}
	}
	return out
}

// ErrOverloaded is matched (errors.Is) by the per-request error of
// batch requests shed by admission control.
var ErrOverloaded = engine.ErrOverloaded

// RetryAfter extracts the engine's suggested backoff from a load-shed
// request error; ok is false when err is not an overload error.
func RetryAfter(err error) (d time.Duration, ok bool) {
	var oe *engine.OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter, true
	}
	return 0, false
}

// EngineStats snapshots the batch engine's admission-control state:
// in-flight and queued requests, the admission capacity (0 when
// unlimited), and how many requests were shed since start.
func (s *System) EngineStats() engine.Stats {
	return s.engineHandle().Stats()
}

// CacheStats reports the batch engine's result-cache counters (zeros
// before the first QueryBatchCtx call). It goes through the same
// once-guard as QueryBatchCtx, so it is safe to call concurrently with
// a first batch.
func (s *System) CacheStats() engine.CacheStats {
	return s.engineHandle().CacheStats()
}

// PlanStats reports the batch engine's compiled-plan cache counters: a
// hit means a query skipped CSR plan compilation and went straight to
// the simulation kernels.
func (s *System) PlanStats() engine.PlanCacheStats {
	return s.engineHandle().PlanStats()
}

// Close releases the batch engine's worker pool. The System remains
// usable for single queries; later QueryBatchCtx calls fail every
// request with engine.ErrClosed. Close is safe to call multiple times, from
// concurrent goroutines, and without ever having batched.
func (s *System) Close() {
	s.engineHandle().Close()
	s.closeDurability()
}

// FunctionName returns a human-readable name for a GO term identifier
// (real names for the terms the paper mentions, a generic description
// for synthetic ones).
func FunctionName(goID string) string {
	return bio.TermName(bio.TermID(goID))
}
