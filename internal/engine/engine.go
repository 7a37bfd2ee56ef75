// Package engine is BioRank's concurrent query/ranking engine: a
// worker-pool executor that accepts batches of (query, methods, options)
// requests and turns them into ranked answer sets as fast as the
// hardware allows.
//
// Three mechanisms do the heavy lifting:
//
//   - Batching with a worker pool. A QueryBatch call fans its requests
//     out over a fixed pool of workers, so a burst of queries saturates
//     every core instead of queueing behind one sequential loop.
//   - Shared query graphs. Each request resolves (or receives) ONE
//     pruned graph.QueryGraph and scores all requested semantics over it
//     via rank.RankSpecs — the graph is never rebuilt per method, and the
//     reliability estimator can additionally shard its Monte Carlo
//     trials over goroutines (Options.Workers) with deterministic
//     per-shard RNG streams.
//   - Result caching. Scores are memoized in an LRU keyed by (source,
//     query-graph fingerprint, method, normalised estimator). The
//     fingerprint hashes the full pruned graph content, so mutating the
//     underlying entity graph changes the keys of every affected query
//     and stale results can never be served; InvalidateSources
//     additionally reclaims the stranded entries for exactly the sources
//     a delta touched.
//
// The engine is safe for concurrent use; any number of goroutines may
// call QueryBatch and Rank simultaneously.
package engine

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"biorank/internal/graph"
	"biorank/internal/kernel"
	"biorank/internal/rank"
)

// Resolver turns a query source string (e.g. a protein keyword) into a
// pruned probabilistic query graph. Implementations must be safe for
// concurrent use; the mediator's Explore qualifies because it builds a
// fresh graph per call from immutable sources.
type Resolver interface {
	Resolve(source string) (*graph.QueryGraph, error)
}

// CtxResolver is a Resolver that honors context cancellation during
// resolution (a remote mediator call, an injected chaos delay). The
// engine uses ResolveCtx when the implementation offers it.
type CtxResolver interface {
	Resolver
	ResolveCtx(ctx context.Context, source string) (*graph.QueryGraph, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(source string) (*graph.QueryGraph, error)

// Resolve implements Resolver.
func (f ResolverFunc) Resolve(source string) (*graph.QueryGraph, error) { return f(source) }

// resolve dispatches to ResolveCtx when the resolver supports it.
func resolve(ctx context.Context, r Resolver, source string) (*graph.QueryGraph, error) {
	if cr, ok := r.(CtxResolver); ok {
		return cr.ResolveCtx(ctx, source)
	}
	return r.Resolve(source)
}

// Options tune how a request's methods are evaluated: the estimator
// spec, passed to the rankers unchanged. The zero value uses the paper's
// defaults (10,000-trial serial Monte Carlo, no reductions).
type Options = rank.Estimator

// Request is one unit of work in a batch: rank the answers of a query
// under one or more semantics.
type Request struct {
	// Source is the query handed to the engine's Resolver. Ignored when
	// Graph is set, but still used (verbatim) in the cache key and echoed
	// in the response.
	Source string
	// Graph, when non-nil, is a pre-resolved query graph to rank
	// directly, bypassing the Resolver.
	Graph *graph.QueryGraph
	// Methods lists the semantics to evaluate; nil or empty means all
	// five (rank.MethodNames).
	Methods []string
	// Options tune evaluation.
	Options Options
	// Timeout, when positive, bounds this request's latency from the
	// moment it is submitted — queue time included, so a request that
	// waits out its budget in the queue executes with an already-expired
	// deadline and returns immediately-truncated partial estimates. It
	// layers onto (never extends) the batch context's deadline. Not part
	// of the cache key: a completed run is bit-identical with or without
	// a deadline, and truncated results are never cached.
	Timeout time.Duration
}

// Response is the outcome of one Request.
type Response struct {
	// Source echoes the request's Source.
	Source string
	// Err is non-nil if the query could not be resolved or ranked; the
	// other fields are then zero.
	Err error
	// Graph is the shared pruned query graph the methods were scored on.
	Graph *graph.QueryGraph
	// Results maps method name to its scores over Graph.Answers.
	Results map[string]rank.Result
	// Cached records, per method, whether the scores came from the LRU.
	Cached map[string]bool
}

// Config sizes the engine.
type Config struct {
	// Workers is the worker-pool size; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize is the LRU capacity in (query, method, options) entries;
	// 0 means DefaultCacheSize, negative disables caching.
	CacheSize int
	// PlanCacheSize is the compiled-plan LRU capacity in query graphs;
	// 0 means DefaultPlanCacheSize, negative disables plan caching.
	PlanCacheSize int
	// MaxInFlight caps how many requests execute concurrently; 0 means
	// the worker count. Setting it below Workers deliberately idles part
	// of the pool (e.g. to reserve cores for other work).
	MaxInFlight int
	// MaxQueue caps how many admitted requests may wait beyond the
	// in-flight set. When the queue is full, further requests fail fast
	// with an OverloadError (errors.Is ErrOverloaded) carrying a
	// suggested retry delay, instead of queueing unboundedly. Admission
	// control is on when either MaxInFlight or MaxQueue is positive;
	// with both zero the engine accepts everything, as it historically
	// did.
	MaxQueue int
}

// DefaultCacheSize is the default LRU capacity.
const DefaultCacheSize = 4096

// ErrClosed is the per-request error of batches submitted after Close.
var ErrClosed = fmt.Errorf("engine: closed")

// ErrOverloaded is the sentinel matched by errors.Is for requests shed
// by admission control. The concrete per-request error is an
// *OverloadError carrying the suggested retry delay.
var ErrOverloaded = errors.New("engine: overloaded")

// OverloadError is the per-request error of a load-shed request: the
// admission queue was full at submission. RetryAfter is the engine's
// estimate of when capacity will free up — current queue depth times
// the smoothed per-request service time, spread over the pool — which
// biorankd surfaces as an HTTP Retry-After header.
type OverloadError struct {
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("engine: overloaded, retry after %s", e.RetryAfter)
}

// Is reports ErrOverloaded as a match, so callers can test shed errors
// with errors.Is(err, ErrOverloaded) without type assertions.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// Stats snapshots the engine's admission-control state.
type Stats struct {
	// InFlight is the number of requests currently executing.
	InFlight int
	// Queued is the number of admitted requests waiting for a worker.
	Queued int
	// Capacity is the admission limit (in-flight + queued) beyond which
	// requests are shed; 0 means unlimited.
	Capacity int
	// Shed counts requests rejected by admission control since start.
	Shed uint64
}

// logPanic reports a recovered worker panic; a variable so the engine's
// own tests can silence the (expected) stack traces they provoke.
var logPanic = func(format string, args ...any) { log.Printf(format, args...) }

// Engine executes batched ranking requests over a worker pool. Create
// one with New and release its workers with Close.
type Engine struct {
	resolver Resolver
	cache    *resultCache
	plans    *planCache
	jobs     chan job
	wg       sync.WaitGroup
	workers  int

	// Admission control. capacity is the admitted ceiling (0 =
	// unlimited); pending counts admitted-but-unfinished requests,
	// inFlight the subset currently executing, shed the rejections.
	// avgNS is an EWMA of per-request service time feeding the
	// RetryAfter suggestion. execSem, when non-nil, additionally caps
	// execution concurrency at MaxInFlight.
	capacity int
	pending  atomic.Int64
	inFlight atomic.Int64
	shed     atomic.Uint64
	avgNS    atomic.Int64
	execSem  chan struct{}

	// mu orders submissions against Close: submitters hold the read
	// side while enqueueing, so Close cannot close the jobs channel
	// under a pending send.
	mu     sync.RWMutex
	closed bool
}

type job struct {
	ctx    context.Context
	cancel context.CancelFunc
	req    *Request
	resp   *Response
	done   func()
}

// New builds an engine over the given resolver (which may be nil if all
// requests carry pre-resolved graphs) and starts its worker pool.
func New(resolver Resolver, cfg Config) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	planSize := cfg.PlanCacheSize
	if planSize == 0 {
		planSize = DefaultPlanCacheSize
	}
	capacity := 0
	if cfg.MaxInFlight > 0 || cfg.MaxQueue > 0 {
		inFlight := cfg.MaxInFlight
		if inFlight <= 0 {
			inFlight = workers
		}
		capacity = inFlight + cfg.MaxQueue
	}
	e := &Engine{
		resolver: resolver,
		cache:    newResultCache(size), // nil when size < 0
		plans:    newPlanCache(planSize),
		// Buffered to the admission ceiling: an admitted send can then
		// never block, so QueryBatch's enqueue loop cannot stall behind
		// a slow pool and admission "queued" matches channel occupancy.
		jobs:     make(chan job, capacity),
		workers:  workers,
		capacity: capacity,
	}
	if cfg.MaxInFlight > 0 && cfg.MaxInFlight < workers {
		e.execSem = make(chan struct{}, cfg.MaxInFlight)
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Close shuts the worker pool down and waits for it to drain.
// In-flight batches complete; QueryBatch calls after Close fail every
// request with ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.jobs)
	e.mu.Unlock()
	e.wg.Wait()
}

// CacheStats snapshots the result cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.Stats() }

// InvalidateSources drops every cached result whose query source is
// listed, returning how many entries were removed. Callers that apply a
// graph delta derive the source list from reverse reachability of the
// delta's affected nodes (graph.Store.SourcesReaching): those are
// exactly the queries whose pruned graphs — and therefore fingerprints —
// may have changed. Content keying already prevents stale hits; the
// point of invalidation is reclaiming the stranded capacity immediately
// and making churn observable (CacheStats.Invalidations).
func (e *Engine) InvalidateSources(sources []string) int {
	return e.cache.invalidateSources(sources)
}

// PlanStats snapshots the compiled-plan cache counters.
func (e *Engine) PlanStats() PlanCacheStats { return e.plans.Stats() }

// Stats snapshots the admission-control counters.
func (e *Engine) Stats() Stats {
	pending := e.pending.Load()
	inFlight := e.inFlight.Load()
	queued := pending - inFlight
	if queued < 0 {
		queued = 0
	}
	return Stats{
		InFlight: int(inFlight),
		Queued:   int(queued),
		Capacity: e.capacity,
		Shed:     e.shed.Load(),
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.jobs {
		e.run(j)
	}
}

// run executes one admitted job: it retires the admission token,
// honors cancellation that happened while the job was queued, applies
// the MaxInFlight gate, and feeds the service-time EWMA.
func (e *Engine) run(j job) {
	defer j.done()
	defer e.pending.Add(-1)
	if j.cancel != nil {
		defer j.cancel()
	}
	// A queued job whose client hung up is skipped outright — there is
	// nobody to read the answer. A queued job whose DEADLINE passed
	// still executes: the estimators then return immediately-truncated
	// partial results, which is an answer the client is still waiting
	// for.
	if err := j.ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		j.resp.Source = j.req.Source
		j.resp.Err = err
		return
	}
	if e.execSem != nil {
		e.execSem <- struct{}{}
		defer func() { <-e.execSem }()
	}
	e.inFlight.Add(1)
	start := time.Now()
	e.execute(j.ctx, j.req, j.resp)
	e.observe(time.Since(start))
	e.inFlight.Add(-1)
}

// observe folds one request's service time into the EWMA behind
// RetryAfter suggestions (alpha 1/8).
func (e *Engine) observe(d time.Duration) {
	ns := d.Nanoseconds()
	for {
		old := e.avgNS.Load()
		next := ns
		if old > 0 {
			next = old + (ns-old)/8
		}
		if e.avgNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// admit claims an admission token, failing when the engine is at
// capacity.
func (e *Engine) admit() bool {
	if e.capacity <= 0 {
		e.pending.Add(1)
		return true
	}
	for {
		cur := e.pending.Load()
		if cur >= int64(e.capacity) {
			return false
		}
		if e.pending.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// retryAfter estimates when a shed client should try again: the queue
// it would wait behind, served at the smoothed per-request rate across
// the pool, clamped to [100ms, 30s].
func (e *Engine) retryAfter() time.Duration {
	avg := time.Duration(e.avgNS.Load())
	if avg <= 0 {
		avg = 50 * time.Millisecond
	}
	backlog := e.pending.Load()
	workers := int64(e.workers)
	if e.execSem != nil {
		workers = int64(cap(e.execSem))
	}
	d := avg * time.Duration(backlog+1) / time.Duration(workers)
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// QueryBatch executes all requests on the worker pool and returns the
// responses in request order. It blocks until the whole batch is done.
// Per-request failures land in Response.Err; QueryBatch itself never
// fails partially. After Close every response carries ErrClosed.
func (e *Engine) QueryBatch(reqs []Request) []Response {
	return e.QueryBatchCtx(context.Background(), reqs)
}

// QueryBatchCtx is QueryBatch under a context. The context bounds every
// request in the batch: cancellation while queued skips the request
// with the context's error; an expired deadline during estimation
// yields truncated partial results (rank.Result.Truncated), not an
// error. Per-request Request.Timeout layers a tighter per-request
// deadline on top. Under admission control, requests beyond capacity
// fail fast with an *OverloadError instead of queueing.
func (e *Engine) QueryBatchCtx(ctx context.Context, reqs []Request) []Response {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]Response, len(reqs))
	var wg sync.WaitGroup
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		for i := range reqs {
			out[i].Source = reqs[i].Source
			out[i].Err = ErrClosed
		}
		return out
	}
	for i := range reqs {
		if !e.admit() {
			e.shed.Add(1)
			out[i].Source = reqs[i].Source
			out[i].Err = &OverloadError{RetryAfter: e.retryAfter()}
			continue
		}
		jctx, cancel := ctx, context.CancelFunc(nil)
		if t := reqs[i].Timeout; t > 0 {
			jctx, cancel = context.WithTimeout(ctx, t)
		}
		wg.Add(1)
		e.jobs <- job{ctx: jctx, cancel: cancel, req: &reqs[i], resp: &out[i], done: wg.Done}
	}
	e.mu.RUnlock()
	wg.Wait()
	return out
}

// Rank executes a single request (a batch of one).
func (e *Engine) Rank(req Request) Response {
	return e.QueryBatch([]Request{req})[0]
}

// RankCtx executes a single request under a context.
func (e *Engine) RankCtx(ctx context.Context, req Request) Response {
	return e.QueryBatchCtx(ctx, []Request{req})[0]
}

// execute resolves and ranks one request into resp. A panicking
// resolver or estimator is recovered into a per-request error — one
// poisoned graph must never take down the pool — with the stack logged
// for diagnosis.
func (e *Engine) execute(ctx context.Context, req *Request, resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			logPanic("engine: panic executing %q: %v\n%s", req.Source, r, debug.Stack())
			resp.Err = fmt.Errorf("engine: internal error executing %q: %v", req.Source, r)
			resp.Graph = nil
			resp.Results = nil
			resp.Cached = nil
		}
	}()
	resp.Source = req.Source
	qg := req.Graph
	if qg == nil {
		if e.resolver == nil {
			resp.Err = fmt.Errorf("engine: request %q has no graph and no resolver is configured", req.Source)
			return
		}
		var err error
		qg, err = resolve(ctx, e.resolver, req.Source)
		if err != nil {
			resp.Err = err
			return
		}
	}
	resp.Graph = qg

	methods := req.Methods
	if len(methods) == 0 {
		methods = rank.MethodNames
	}
	specs := make([]rank.Spec, len(methods))
	for i, m := range methods {
		spec, err := req.Options.For(m)
		if err != nil {
			resp.Err = err
			return
		}
		specs[i] = spec
	}
	fp := qg.Fingerprint()

	results := make(map[string]rank.Result, len(specs))
	cached := make(map[string]bool, len(specs))
	var misses []rank.Spec
	for _, s := range specs {
		if hit, ok := e.cache.get(cacheKey{source: req.Source, fp: fp, method: s.Method, est: s.Key}); ok {
			results[s.Method] = rank.Result{Method: s.Method, Scores: hit.scores, Lo: hit.lo, Hi: hit.hi, Exact: hit.exact}
			cached[s.Method] = true
			continue
		}
		misses = append(misses, s)
	}

	if len(misses) > 0 {
		fresh, err := rank.RankSpecs(ctx, qg, misses, e.planFor(qg, fp, misses), false)
		if err != nil {
			resp.Err = err
			return
		}
		for i, s := range misses {
			res := fresh[i]
			results[s.Method] = res
			cached[s.Method] = false
			if res.Truncated {
				// A truncated result is specific to the deadline that
				// produced it; memoizing it would serve partial tallies
				// to future requests with all the time in the world.
				continue
			}
			e.cache.put(cacheKey{source: req.Source, fp: fp, method: s.Method, est: s.Key},
				cachedResult{scores: res.Scores, lo: res.Lo, hi: res.Hi, exact: res.Exact})
		}
	}
	resp.Results = results
	resp.Cached = cached
}

// planFor returns a compiled kernel plan for qg when one of the missed
// specs runs on a plan, consulting the plan LRU first. Keys are content
// fingerprints, so mutations strand stale plans exactly like stale
// results. On a miss it first looks for a cached plan over the same
// wiring — the typical aftermath of a probability-only delta — and
// derives the new plan by patching its coin thresholds
// (kernel.Plan.Patch, ~2x cheaper than Compile) before falling back to
// full compilation.
func (e *Engine) planFor(qg *graph.QueryGraph, fp uint64, specs []rank.Spec) *kernel.Plan {
	needed := false
	for _, s := range specs {
		needed = needed || s.UsesPlan()
	}
	if !needed {
		return nil
	}
	if plan := e.plans.get(fp); plan != nil && plan.Matches(qg) {
		return plan
	}
	topo := qg.TopoFingerprint()
	patched := false
	var plan *kernel.Plan
	if prev := e.plans.topoGet(topo); prev != nil {
		// Patch verifies the wiring edge by edge and refuses on any
		// mismatch, so a topology-fingerprint collision degrades to a
		// compile, never to a wrong plan.
		plan, patched = prev.Patch(qg)
	}
	if plan == nil {
		plan = kernel.Compile(qg)
	}
	e.plans.put(fp, topo, plan, patched)
	return plan
}
