// Package engine is BioRank's concurrent query/ranking engine: a
// worker-pool executor that accepts batches of (query, methods, options)
// requests and turns them into ranked answer sets as fast as the
// hardware allows.
//
// Three mechanisms do the heavy lifting:
//
//   - Batching with a worker pool. A QueryBatchCtx call fans its requests
//     out over a fixed pool of workers, so a burst of queries saturates
//     every core instead of queueing behind one sequential loop.
//   - Shared query graphs. Each request resolves ONE pruned
//     graph.QueryGraph through the engine's Resolver and scores all
//     requested semantics over it via rank.RankSpecs — the graph is
//     never rebuilt per method, and the reliability estimator can
//     additionally shard its Monte Carlo trials over goroutines
//     (Options.Workers) with deterministic per-shard RNG streams.
//   - Caching. One tagged LRU type holds both caches. Scores are
//     memoized by (source, query-graph fingerprint, method, normalised
//     estimator) and tagged by source. The fingerprint hashes the full
//     pruned graph content, so mutating the underlying entity graph
//     changes the keys of every affected query and stale results can
//     never be served; InvalidateSources additionally reclaims the
//     stranded entries for exactly the sources a delta touched. Compiled
//     kernel plans are keyed by content fingerprint and tagged by
//     topology fingerprint, so a probability-only change patches a plan
//     over the same wiring instead of compiling anew.
//
// Admission control sizes the pool: AdmissionFor turns a Config into
// the pool size and the admission capacity, and a MaxInFlight below
// Workers simply means a smaller pool.
//
// The engine is safe for concurrent use; any number of goroutines may
// call QueryBatchCtx and RankCtx simultaneously.
package engine

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"biorank/internal/graph"
	"biorank/internal/kernel"
	"biorank/internal/rank"
)

// Resolver turns a query source string (e.g. a protein keyword) into a
// pruned probabilistic query graph under the request's context, which
// carries its deadline and values (a remote mediator call or an
// injected chaos delay should honor cancellation). Implementations must
// be safe for concurrent use; the mediator's Explore qualifies because
// it builds a fresh graph per call from immutable sources. A resolver
// may return the same graph to many requests, as the facade's memo of
// resolved graphs does, so the engine and every ranker treat a resolved
// graph as read-only: no ranker mutates its query graph, and the
// reductions build new ones.
type Resolver interface {
	ResolveCtx(ctx context.Context, source string) (*graph.QueryGraph, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(ctx context.Context, source string) (*graph.QueryGraph, error)

// ResolveCtx implements Resolver.
func (f ResolverFunc) ResolveCtx(ctx context.Context, source string) (*graph.QueryGraph, error) {
	return f(ctx, source)
}

// Options tune how a request's methods are evaluated: the estimator
// spec, passed to the rankers unchanged. The zero value uses the paper's
// defaults (10,000-trial serial Monte Carlo).
type Options = rank.Estimator

// Request is one unit of work in a batch: rank the answers of a query
// under one or more semantics.
type Request struct {
	// Source is the query handed to the engine's Resolver. It is also
	// used (verbatim) in the cache key and echoed in the response.
	Source string
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
	// CacheSize is the result LRU capacity in (query, method, options)
	// entries; 0 means DefaultCacheSize, negative disables caching.
	CacheSize int
	// MaxInFlight caps how many requests execute concurrently; 0 means
	// the worker count. Below Workers it sets the pool size (e.g. to
	// reserve cores for other work).
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

// DefaultCacheSize is the default result LRU capacity.
const DefaultCacheSize = 4096

// planCacheSize is the plan LRU capacity in query graphs. Plans are a
// few hundred bytes per graph element, far smaller than the graphs they
// are compiled from.
const planCacheSize = 256

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
	// results memoizes scores, tagged by query source; nil when caching
	// is disabled.
	results *lru[cacheKey, string, rank.Result]
	// plans memoizes compiled plans by content fingerprint, tagged by
	// topology fingerprint; patches counts the misses served by
	// patching a plan over the same wiring.
	plans   *lru[uint64, uint64, *kernel.Plan]
	patches atomic.Int64
	jobs    chan job
	wg      sync.WaitGroup

	// Admission control. adm admits up to the capacity and holds a
	// token per admitted-but-unfinished request; inFlight counts the
	// subset currently executing.
	adm      *Admission
	inFlight atomic.Int64

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

// New builds an engine over resolver, the only way a request's query
// graph is obtained, and starts a pool of AdmissionFor(cfg).Servers()
// workers.
func New(resolver Resolver, cfg Config) *Engine {
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	adm := AdmissionFor(cfg)
	e := &Engine{
		resolver: resolver,
		results:  newLRU[cacheKey, string](size, cloneResult), // nil when size < 0
		plans:    newLRU[uint64, uint64, *kernel.Plan](planCacheSize, nil),
		adm:      adm,
		// Buffered to the admission ceiling: an admitted send can then
		// never block, so QueryBatchCtx's enqueue loop cannot stall behind
		// a slow pool and admission "queued" matches channel occupancy.
		jobs: make(chan job, adm.Capacity()),
	}
	e.wg.Add(adm.Servers())
	for range adm.Servers() {
		go e.worker()
	}
	return e
}

// Close shuts the worker pool down and waits for it to drain.
// In-flight batches complete; QueryBatchCtx calls after Close fail every
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
func (e *Engine) CacheStats() CacheStats { return e.results.Stats() }

// InvalidateSources drops every cached result whose query source is
// listed, returning how many entries were removed. Callers that apply a
// graph delta derive the source list from reverse reachability of the
// delta's affected nodes (graph.Store.SourcesReaching): those are
// exactly the queries whose pruned graphs — and therefore fingerprints —
// may have changed. Content keying already prevents stale hits; the
// point of invalidation is reclaiming the stranded capacity immediately
// and making churn observable (CacheStats.Invalidations).
func (e *Engine) InvalidateSources(sources []string) int {
	return e.results.removeTags(sources)
}

// PlanStats snapshots the compiled-plan cache counters.
func (e *Engine) PlanStats() PlanCacheStats {
	s := e.plans.Stats()
	return PlanCacheStats{
		Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions,
		Patches: e.patches.Load(), Entries: s.Entries,
	}
}

// Stats snapshots the admission-control counters.
func (e *Engine) Stats() Stats {
	pending := e.adm.Pending()
	inFlight := e.inFlight.Load()
	queued := pending - inFlight
	if queued < 0 {
		queued = 0
	}
	return Stats{
		InFlight: int(inFlight),
		Queued:   int(queued),
		Capacity: e.adm.Capacity(),
		Shed:     e.adm.Shed(),
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.jobs {
		e.run(j)
	}
}

// run executes one admitted job: it retires the admission token,
// honors cancellation that happened while the job was queued, and feeds
// the service-time EWMA.
func (e *Engine) run(j job) {
	defer j.done()
	defer e.adm.Done()
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
	e.inFlight.Add(1)
	start := time.Now()
	e.execute(j.ctx, j.req, j.resp)
	e.adm.Observe(time.Since(start))
	e.inFlight.Add(-1)
}

// QueryBatchCtx executes all requests on the worker pool and returns
// the responses in request order. It blocks until the whole batch is
// done. Per-request failures land in Response.Err; QueryBatchCtx itself
// never fails partially. After Close every response carries ErrClosed.
//
// The context bounds every request in the batch: cancellation while
// queued skips the request with the context's error; an expired
// deadline during estimation yields truncated partial results
// (rank.Result.Truncated), not an error. Per-request Request.Timeout
// layers a tighter per-request deadline on top. Under admission
// control, requests beyond capacity fail fast with an *OverloadError
// instead of queueing.
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
		if !e.adm.Admit() {
			out[i].Source = reqs[i].Source
			out[i].Err = &OverloadError{RetryAfter: e.adm.RetryAfter()}
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

// RankCtx executes a single request (a batch of one).
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
	// Validate the method names before paying for a resolution.
	specs, err := req.Options.Specs(req.Methods)
	if err != nil {
		resp.Err = err
		return
	}
	qg, err := e.resolver.ResolveCtx(ctx, req.Source)
	if err != nil {
		resp.Err = err
		return
	}
	fp := qg.Fingerprint()

	results := make(map[string]rank.Result, len(specs))
	cached := make(map[string]bool, len(specs))
	var misses []rank.Spec
	for _, s := range specs {
		if hit, ok := e.results.get(cacheKey{source: req.Source, fp: fp, method: s.Method, est: s.Key}); ok {
			results[s.Method] = hit
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
			e.results.put(cacheKey{source: req.Source, fp: fp, method: s.Method, est: s.Key}, req.Source, res)
		}
	}
	resp.Graph = qg
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
	if plan, ok := e.plans.get(fp); ok && plan.Matches(qg) {
		return plan
	}
	topo := qg.TopoFingerprint()
	var plan *kernel.Plan
	if prev, ok := e.plans.tagged(topo); ok {
		// Any plan under the tag will do: Patch verifies the wiring edge
		// by edge, refusing on any mismatch (so a topology-fingerprint
		// collision degrades to a compile, never to a wrong plan), and
		// rebuilds every probability array from qg.
		var patched bool
		if plan, patched = prev.Patch(qg); patched {
			e.patches.Add(1)
		}
	}
	if plan == nil {
		plan = kernel.Compile(qg)
	}
	e.plans.put(fp, topo, plan)
	return plan
}
