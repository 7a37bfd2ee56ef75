// Command biorankd serves BioRank over HTTP: exploratory
// protein-function queries ranked under any of the five relevance
// semantics, executed on the concurrent batch engine with its LRU
// result cache.
//
//	biorankd -addr :8080 -world demo -seed 1
//
// Endpoints:
//
//	POST /query   {"requests":[{"protein":"ABCC8","methods":["reliability"],
//	               "trials":1000,"seed":1}]}
//	              Ranks a batch of queries; a single object (no "requests"
//	              wrapper) is also accepted, as is GET /query?protein=ABCC8.
//	              Every Monte Carlo estimator samples the full query graph
//	              on the bit-parallel block kernel (256 worlds per [4]uint64
//	              block, trials rounded up to a multiple of 64;
//	              statistically equivalent to the paper's scalar estimator
//	              but on a different RNG stream), so "worlds" and "reduce"
//	              are accepted and ignored (on /rank and /topk too). "planner"
//	              selects the hybrid exact/Monte-Carlo planner; ranked
//	              answers then carry "lo"/"hi" confidence bounds and an
//	              "exact" marker.
//	POST /rank    {"graph":<query-graph JSON>,"methods":[...],"trials":...}
//	              Ranks a caller-supplied serialized query graph (the
//	              format written by biorank -json / Answers.MarshalJSON).
//	              Accepts "planner" like /query.
//	POST /topk    {"protein":"ABCC8","k":5,"trials":...,"seed":...}
//	              Races the answer set with the successive-elimination
//	              top-k ranker and returns only the certified top k,
//	              each with its confidence interval [lo, hi] and trial
//	              count, plus the race telemetry (candidates, pruned,
//	              rounds, candidateTrials). GET /topk?protein=ABCC8&k=5
//	              is also accepted. With "planner" answers solved exactly
//	              are marked "exact" (zero-width interval, zero trials)
//	              and the response reports "exactAnswers";
//	              "order":"lower" re-sorts the certified top k by the
//	              interval lower bound (a risk-averse presentation
//	              order).
//	POST /ingest  {"deltas":[{"source":"curation","ops":[{"op":"set-node-p",
//	              "node":{"kind":"EntrezProtein","label":"NP_000343"},
//	              "p":0.8}]}]}
//	              Applies source deltas to the live graph (requires
//	              -live). A single delta without the "deltas" wrapper is
//	              also accepted. The response reports what changed, which
//	              query keywords were invalidated (scoped to the proteins
//	              that can reach an affected record), and the per-source
//	              ingestion epochs. With "async": true the batch is queued
//	              for the background refresher instead (202 Accepted; 429
//	              when the queue is full, 503 while draining).
//	GET  /stats   Engine result- and plan-cache counters (hits, misses,
//	              evictions, scoped invalidations, plan patches),
//	              admission-control state (in-flight, queued, shed), live
//	              store and ingest-queue state (when -live) and server
//	              configuration.
//	GET  /healthz Liveness probe: 200 as long as the process serves.
//	GET  /readyz  Readiness probe: 200 while accepting work, 503 once
//	              a shutdown signal flips the server into draining.
//
// Deadlines: -default-timeout bounds every ranking request's latency;
// a per-request "timeoutMs" field (or query parameter) overrides it.
// A request that runs out of budget is not failed — the Monte Carlo
// estimators return the ranking built from the trials completed so
// far, every answer keeps a valid confidence interval, and the
// response carries "truncated": true.
//
// Overload: -max-inflight / -max-queue bound how much work may be
// admitted at once: /query gets this budget in the engine, and /rank
// plus /topk, which bypass the engine, get a second, separate budget
// of the same size. Requests beyond capacity fail fast with 429 Too
// Many Requests and a Retry-After header estimating when capacity
// frees up.
//
// Shutdown: SIGINT/SIGTERM flip /readyz to 503, stop accepting new
// connections, and drain in-flight requests (up to -drain) before the
// process exits — no accepted request is dropped. The async ingest
// queue is flushed before teardown, and with -wal-dir the drain then
// checkpoints the flushed state and syncs the log.
//
// Durability: -wal-dir DIR (implies -live) write-ahead-logs every
// ingested delta and recovers the live graph on boot — newest valid
// checkpoint plus WAL replay — before /readyz turns ready. -fsync
// selects the append sync policy (always = no acknowledged delta is
// ever lost, interval = bounded loss window, never = page-cache only);
// -checkpoint-every N snapshots the graph after every N deltas and
// prunes covered log segments. /stats reports the WAL, checkpoint and
// recovery counters under "durability".
//
// With -pprof ADDR the server additionally exposes net/http/pprof
// profiling endpoints (/debug/pprof/...) on a separate listener, kept
// off the serving port so profiling is never accidentally public:
//
//	biorankd -addr :8080 -pprof localhost:6060
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"biorank"
	"biorank/internal/engine"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		world          = flag.String("world", "demo", "world to serve: demo|hypothetical|full")
		seed           = flag.Uint64("seed", 1, "world seed")
		pprofAddr      = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
		defaultTimeout = flag.Duration("default-timeout", 0, "per-request ranking deadline (0 disables); requests may override with timeoutMs")
		maxInFlight    = flag.Int("max-inflight", 0, "max concurrently executing /query requests; /rank+/topk get a second, separate budget of the same size (0 = worker count when -max-queue is set, else unlimited)")
		maxQueue       = flag.Int("max-queue", 0, "max admitted /query requests waiting beyond the in-flight set, and the same again for /rank+/topk; beyond it requests are shed with 429 (0 with -max-inflight 0 = unlimited)")
		drain          = flag.Duration("drain", 15*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM")
		live           = flag.Bool("live", false, "serve queries from a live mutable union graph and accept POST /ingest deltas")
		ingestQueue    = flag.Int("ingest-queue", 64, "async ingest queue capacity (with -live); full queues shed with 429")
		walDir         = flag.String("wal-dir", "", "write-ahead log directory; makes the live store durable and recovers state on boot (implies -live)")
		fsync          = flag.String("fsync", "interval", "WAL fsync policy with -wal-dir: always|interval|never")
		checkpointEach = flag.Int("checkpoint-every", 1024, "write a checkpoint after this many ingested deltas (with -wal-dir); 0 only checkpoints on shutdown")
	)
	flag.Parse()

	sys, err := buildSystem(*world, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "biorankd:", err)
		os.Exit(1)
	}
	defer sys.Close()

	switch {
	case *walDir != "":
		// Recovery runs before the listener exists, so /readyz can never
		// say yes while the store is mid-replay.
		st, err := sys.EnableLiveDurable(biorank.DurabilityConfig{
			Dir:             *walDir,
			Fsync:           *fsync,
			CheckpointEvery: *checkpointEach,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "biorankd:", err)
			os.Exit(1)
		}
		*live = true
		if st.Recovered {
			log.Printf("biorankd: recovered %s: checkpoint %s (seq %d), %d replayed, %d skipped, torn tail %v, %dms",
				*walDir, st.Recovery.Checkpoint, st.Recovery.CheckpointSeq, st.Recovery.Replayed,
				st.Recovery.Skipped, st.Recovery.TornTailTruncated, st.Recovery.DurationMS)
		} else {
			log.Printf("biorankd: initialized durable live state in %s (fsync %s)", *walDir, *fsync)
		}
	case *live:
		if err := sys.EnableLive(); err != nil {
			fmt.Fprintln(os.Stderr, "biorankd:", err)
			os.Exit(1)
		}
	}

	if *maxInFlight > 0 || *maxQueue > 0 {
		if err := sys.ConfigureEngine(biorank.EngineConfig{MaxInFlight: *maxInFlight, MaxQueue: *maxQueue}); err != nil {
			fmt.Fprintln(os.Stderr, "biorankd:", err)
			os.Exit(1)
		}
	}

	srv := newServer(sys, *world, *defaultTimeout, *maxInFlight, *maxQueue)
	if *live {
		srv.ingest = newIngester(sys, *ingestQueue)
	}
	mux := srv.mux()

	if *pprofAddr != "" {
		go func() {
			pmux := http.NewServeMux()
			pmux.HandleFunc("/debug/pprof/", pprof.Index)
			pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			log.Printf("biorankd: pprof on %s/debug/pprof/", *pprofAddr)
			ps := &http.Server{
				Addr:              *pprofAddr,
				Handler:           pmux,
				ReadHeaderTimeout: 5 * time.Second,
				ReadTimeout:       30 * time.Second,
				// CPU profiles block for their sampling window (30s by
				// default), so the write timeout must comfortably exceed it.
				WriteTimeout: 2 * time.Minute,
				IdleTimeout:  2 * time.Minute,
			}
			log.Printf("biorankd: pprof server exited: %v", ps.ListenAndServe())
		}()
	}

	// The write timeout caps how long one response may take end to end;
	// keep it clear of the ranking deadline so the deadline (which
	// degrades gracefully into a truncated ranking) always fires first.
	writeTimeout := 2 * time.Minute
	if *defaultTimeout > 0 && *defaultTimeout+30*time.Second > writeTimeout {
		writeTimeout = *defaultTimeout + 30*time.Second
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	srv.ready.Store(true)
	log.Printf("biorankd: serving %s world on %s", *world, *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Drain: flip readiness so load balancers stop routing here, then
	// let in-flight requests finish before the engine is torn down.
	srv.ready.Store(false)
	log.Printf("biorankd: shutdown signal, draining (up to %s)", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Printf("biorankd: drain incomplete: %v", err)
	}
	srv.drain()
	log.Printf("biorankd: drained, exiting")
}

// drain finishes a shutdown after the HTTP listener has stopped: the
// async ingest queue is flushed first, and only then is the durable
// state checkpointed and the WAL synced. The ordering is the fix for a
// teardown race — checkpointing before (or concurrently with) the final
// refresher flush would capture a sequence number below the queued
// batches, and under -fsync never the flushed batches' WAL records could
// still be sitting unsynced in the page cache when the process exits.
// Flush → checkpoint → sync makes every acknowledged 202 batch durable.
func (s *server) drain() {
	if s.ingest != nil {
		// Flush accepted deltas before the engine is torn down: an
		// acknowledged async batch is never dropped by a shutdown.
		s.ingest.stop()
	}
	if s.sys.LiveDurable() {
		if seq, err := s.sys.Checkpoint(); err != nil {
			log.Printf("biorankd: shutdown checkpoint: %v", err)
		} else {
			log.Printf("biorankd: shutdown checkpoint at seq %d", seq)
		}
		if err := s.sys.SyncWAL(); err != nil {
			log.Printf("biorankd: shutdown wal sync: %v", err)
		}
	}
}

func buildSystem(world string, seed uint64) (*biorank.System, error) {
	switch world {
	case "demo":
		return biorank.NewDemoSystem(seed)
	case "hypothetical":
		return biorank.NewHypotheticalSystem(seed)
	case "full":
		return biorank.NewFullSystem(seed)
	default:
		return nil, fmt.Errorf("unknown world %q (want demo|hypothetical|full)", world)
	}
}

type server struct {
	sys     *biorank.System
	world   string
	started time.Time
	// defaultTimeout bounds every ranking request's latency unless the
	// request carries its own timeoutMs; 0 disables.
	defaultTimeout time.Duration
	// ready is true while the server accepts work; flipped false at the
	// start of a drain so /readyz steers load balancers away.
	ready atomic.Bool
	// gate admission-controls /rank and /topk, which rank directly on
	// the request goroutine and so bypass the engine's own queue.
	gate *gate
	// ingest is the async delta refresher; nil unless -live.
	ingest *ingester
}

// newServer wires a handler set over a built system. maxInFlight and
// maxQueue mirror the engine's admission limits onto the server-side
// gate guarding the engine-bypassing endpoints.
func newServer(sys *biorank.System, world string, defaultTimeout time.Duration, maxInFlight, maxQueue int) *server {
	s := &server{sys: sys, world: world, started: time.Now(), defaultTimeout: defaultTimeout}
	if maxInFlight > 0 || maxQueue > 0 {
		capacity := maxInFlight
		if capacity <= 0 {
			capacity = 1
		}
		s.gate = &gate{engine.NewAdmission(capacity+maxQueue, 1)}
	}
	return s
}

// mux routes the server's endpoints.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/rank", s.handleRank)
	mux.HandleFunc("/topk", s.handleTopK)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReady)
	return mux
}

// handleReady is the readiness probe: 503 while starting up or
// draining, 200 otherwise. Liveness (/healthz) stays 200 throughout a
// drain — the process is healthy, just not accepting new work.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// gate is biorankd's instance of the engine's admission policy, for the
// endpoints that rank on the request goroutine instead of the engine
// pool: its budget bounds the requests inside those handlers, and the
// service times it smooths are the handlers'. A nil gate admits
// everything.
type gate struct{ *engine.Admission }

// acquire admits the caller (release must be called when done) or
// sheds it with a suggested retry delay.
func (g *gate) acquire() (release func(), retry time.Duration, ok bool) {
	if g == nil {
		return func() {}, 0, true
	}
	if !g.Admit() {
		return nil, g.RetryAfter(), false
	}
	start := time.Now()
	return func() {
		g.Observe(time.Since(start))
		g.Done()
	}, 0, true
}

// shedResponse writes the 429 of a load-shed request with its
// Retry-After header.
func shedResponse(w http.ResponseWriter, retry time.Duration, err error) {
	setRetryAfter(w, retry)
	httpError(w, http.StatusTooManyRequests, err)
}

// setRetryAfter sets the Retry-After header to retry in whole seconds,
// rounded up, minimum 1.
func setRetryAfter(w http.ResponseWriter, retry time.Duration) {
	secs := max(int64((retry+time.Second-1)/time.Second), 1)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// requestTimeout resolves a request's ranking deadline: a positive
// timeoutMs overrides the server's -default-timeout.
func (s *server) requestTimeout(timeoutMs int) time.Duration {
	if timeoutMs > 0 {
		return time.Duration(timeoutMs) * time.Millisecond
	}
	return s.defaultTimeout
}

// rankingContext derives the context a direct (non-engine) ranking
// runs under from the HTTP request's context and the resolved timeout.
func (s *server) rankingContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	if to := s.requestTimeout(timeoutMs); to > 0 {
		return context.WithTimeout(r.Context(), to)
	}
	return r.Context(), func() {}
}

// estimatorWire is the wire form of biorank.Options, embedded by the
// /query, /rank and /topk request bodies. Its fields mirror the options
// one for one, in order, so a conversion maps it (and a new option that
// is not mirrored here fails to compile). Old clients' boolean fields
// (worlds, adaptive, planner, reduce, exact) decode unchanged; worlds and
// reduce, like the options they mirror, are ignored.
type estimatorWire struct {
	Trials   int    `json:"trials,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Reduce   bool   `json:"reduce,omitempty"`
	Exact    bool   `json:"exact,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	Adaptive bool   `json:"adaptive,omitempty"`
	TopK     int    `json:"topk,omitempty"`
	Worlds   bool   `json:"worlds,omitempty"`
	Planner  bool   `json:"planner,omitempty"`
}

// params lists the GET query parameters that set the estimator fields.
func (e *estimatorWire) params() []param {
	return []param{{"trials", &e.Trials}, {"seed", &e.Seed}, {"reduce", &e.Reduce}, {"exact", &e.Exact},
		{"workers", &e.Workers}, {"adaptive", &e.Adaptive}, {"topk", &e.TopK}, {"worlds", &e.Worlds},
		{"planner", &e.Planner}}
}

// param binds one GET query parameter to the field it sets: an *int,
// *uint64 or *bool.
type param struct {
	key string
	dst any
}

// parseParams sets every listed parameter present in q, in list order,
// so a request with several malformed values always names the first.
func parseParams(q url.Values, params []param) error {
	for _, p := range params {
		v := q.Get(p.key)
		if v == "" {
			continue
		}
		var err error
		switch dst := p.dst.(type) {
		case *int:
			*dst, err = strconv.Atoi(v)
		case *uint64:
			*dst, err = strconv.ParseUint(v, 10, 64)
		case *bool:
			*dst, err = strconv.ParseBool(v)
		}
		if err != nil {
			return fmt.Errorf("bad %s: %v", p.key, err)
		}
	}
	return nil
}

// queryRequest is the wire form of one ranking request.
type queryRequest struct {
	Protein string   `json:"protein"`
	Methods []string `json:"methods,omitempty"`
	estimatorWire
	// TimeoutMs bounds this request's latency in milliseconds,
	// overriding the server's -default-timeout; on expiry the ranking
	// is returned truncated, not failed.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

func (q queryRequest) methods() []biorank.Method {
	out := make([]biorank.Method, len(q.Methods))
	for i, m := range q.Methods {
		out[i] = biorank.Method(m)
	}
	return out
}

// scoredAnswer is the wire form of one ranked answer. Lo/Hi/Exact are
// present only when the estimator reported per-answer uncertainty (the
// hybrid planner).
type scoredAnswer struct {
	Kind   string   `json:"kind"`
	Label  string   `json:"label"`
	Name   string   `json:"name,omitempty"`
	Score  float64  `json:"score"`
	RankLo int      `json:"rankLo"`
	RankHi int      `json:"rankHi"`
	Lo     *float64 `json:"lo,omitempty"`
	Hi     *float64 `json:"hi,omitempty"`
	Exact  bool     `json:"exact,omitempty"`
}

// queryResult is the wire form of one ranking response.
type queryResult struct {
	Protein  string                    `json:"protein"`
	Error    string                    `json:"error,omitempty"`
	Answers  int                       `json:"answers,omitempty"`
	Rankings map[string][]scoredAnswer `json:"rankings,omitempty"`
	Cached   map[string]bool           `json:"cached,omitempty"`
	// Truncated reports that at least one method's ranking was cut
	// short by the request deadline and holds partial (but
	// interval-valid) estimates.
	Truncated bool `json:"truncated,omitempty"`
	// RetryAfterMs accompanies an overload error: the suggested backoff
	// before retrying this request.
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

func toWire(sa []biorank.ScoredAnswer, named bool) []scoredAnswer {
	out := make([]scoredAnswer, len(sa))
	for i, a := range sa {
		out[i] = scoredAnswer{Kind: a.Kind, Label: a.Label, Score: a.Score, RankLo: a.RankLo, RankHi: a.RankHi, Exact: a.Exact}
		if a.HasBounds {
			lo, hi := a.Lo, a.Hi
			out[i].Lo, out[i].Hi = &lo, &hi
		}
		if named {
			out[i].Name = biorank.FunctionName(a.Label)
		}
	}
	return out
}

// handleQuery serves batched exploratory queries from the engine.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	reqs, err := parseQueryRequests(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	batch := make([]biorank.BatchRequest, len(reqs))
	for i, q := range reqs {
		if q.Protein == "" {
			httpError(w, http.StatusBadRequest, fmt.Errorf("request %d: protein is required", i))
			return
		}
		if q.TimeoutMs < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("request %d: timeoutMs must be >= 0, got %d", i, q.TimeoutMs))
			return
		}
		batch[i] = biorank.BatchRequest{
			Protein: q.Protein,
			Methods: q.methods(),
			Options: biorank.Options(q.estimatorWire),
			Timeout: s.requestTimeout(q.TimeoutMs),
		}
	}
	results := s.sys.QueryBatchCtx(r.Context(), batch)
	out := make([]queryResult, len(results))
	allShed, maxRetry := len(results) > 0, time.Duration(0)
	for i, res := range results {
		out[i] = queryResult{Protein: res.Protein}
		if res.Err != nil {
			out[i].Error = res.Err.Error()
			if d, ok := biorank.RetryAfter(res.Err); ok {
				out[i].RetryAfterMs = d.Milliseconds()
				if d > maxRetry {
					maxRetry = d
				}
			} else {
				allShed = false
			}
			continue
		}
		allShed = false
		out[i].Answers = res.Answers.Len()
		out[i].Rankings = make(map[string][]scoredAnswer, len(res.Rankings))
		out[i].Cached = make(map[string]bool, len(res.Cached))
		for m, sa := range res.Rankings {
			out[i].Rankings[string(m)] = toWire(sa, true)
			out[i].Cached[string(m)] = res.Cached[m]
			if res.Truncated[m] {
				out[i].Truncated = true
			}
		}
	}
	// A batch shed in its entirety becomes an HTTP-level 429 so plain
	// clients back off; mixed batches stay 200 with per-result errors.
	if allShed {
		setRetryAfter(w, maxRetry)
		writeJSON(w, http.StatusTooManyRequests, map[string]any{"error": "overloaded", "results": out})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": out})
}

// parseQueryRequests accepts GET query parameters, a single JSON
// object, or a {"requests":[...]} batch.
func parseQueryRequests(r *http.Request) ([]queryRequest, error) {
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		req := queryRequest{Protein: q.Get("protein")}
		if m := q.Get("methods"); m != "" {
			req.Methods = strings.Split(m, ",")
		}
		if err := parseParams(q, append(req.params(), param{"timeoutMs", &req.TimeoutMs})); err != nil {
			return nil, err
		}
		return []queryRequest{req}, nil
	}
	if r.Method != http.MethodPost {
		return nil, fmt.Errorf("method %s not allowed", r.Method)
	}
	var envelope struct {
		Requests []queryRequest `json:"requests"`
		queryRequest
	}
	if err := json.NewDecoder(r.Body).Decode(&envelope); err != nil {
		return nil, fmt.Errorf("bad JSON: %v", err)
	}
	if len(envelope.Requests) > 0 {
		return envelope.Requests, nil
	}
	return []queryRequest{envelope.queryRequest}, nil
}

// rankRequest is the wire form of /rank: a serialized query graph plus
// evaluation options.
type rankRequest struct {
	Graph   json.RawMessage `json:"graph"`
	Methods []string        `json:"methods,omitempty"`
	estimatorWire
	// TimeoutMs bounds the ranking's latency in milliseconds,
	// overriding -default-timeout; expiry truncates rather than fails.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// handleRank ranks a caller-supplied query graph under the requested
// methods, sharing the deserialized graph across all of them.
func (s *server) handleRank(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	var req rankRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err))
		return
	}
	if len(req.Graph) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("graph is required"))
		return
	}
	if req.TimeoutMs < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("timeoutMs must be >= 0, got %d", req.TimeoutMs))
		return
	}
	release, retry, ok := s.gate.acquire()
	if !ok {
		shedResponse(w, retry, errors.New("overloaded"))
		return
	}
	defer release()
	ans := &biorank.Answers{}
	if err := ans.UnmarshalJSON(req.Graph); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad graph: %v", err))
		return
	}
	methods := make([]biorank.Method, len(req.Methods))
	for i, m := range req.Methods {
		methods[i] = biorank.Method(m)
	}
	ctx, cancel := s.rankingContext(r, req.TimeoutMs)
	defer cancel()
	all, truncated, err := ans.RankAllCtx(ctx, biorank.Options(req.estimatorWire), methods...)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	rankings := make(map[string][]scoredAnswer, len(all))
	anyTruncated := false
	for m, sa := range all {
		rankings[string(m)] = toWire(sa, false)
		if truncated[m] {
			anyTruncated = true
		}
	}
	nodes, edges := ans.GraphSize()
	resp := map[string]any{
		"answers":  ans.Len(),
		"nodes":    nodes,
		"edges":    edges,
		"rankings": rankings,
	}
	if anyTruncated {
		resp["truncated"] = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// topkRequest is the wire form of /topk. Order "lower" re-sorts the
// certified top k by interval lower bound (descending, stable). K, not
// the estimator's topk field, sets the race's k.
type topkRequest struct {
	Protein string `json:"protein"`
	K       int    `json:"k,omitempty"`
	Order   string `json:"order,omitempty"`
	estimatorWire
	// TimeoutMs bounds the race's latency in milliseconds, overriding
	// -default-timeout; expiry returns the current standings with
	// "truncated": true instead of failing.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// topkAnswer is one certified top-k answer on the wire, with its
// confidence interval.
type topkAnswer struct {
	Kind   string  `json:"kind"`
	Label  string  `json:"label"`
	Name   string  `json:"name,omitempty"`
	Score  float64 `json:"score"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Trials int64   `json:"trials"`
	Exact  bool    `json:"exact,omitempty"`
}

// handleTopK races a protein's answer set with the successive-
// elimination top-k ranker and returns the certified top k with
// confidence bounds and race telemetry.
func (s *server) handleTopK(w http.ResponseWriter, r *http.Request) {
	req := topkRequest{K: 5}
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		req.Protein = q.Get("protein")
		if err := parseParams(q, append(req.params(), param{"k", &req.K}, param{"timeoutMs", &req.TimeoutMs})); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		req.Order = q.Get("order")
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err))
			return
		}
		if req.K == 0 {
			req.K = 5
		}
	default:
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	if req.Protein == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("protein is required"))
		return
	}
	if req.K < 1 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("k must be >= 1, got %d", req.K))
		return
	}
	if req.Order != "" && req.Order != "score" && req.Order != "lower" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("order must be \"score\" or \"lower\", got %q", req.Order))
		return
	}
	if req.TimeoutMs < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("timeoutMs must be >= 0, got %d", req.TimeoutMs))
		return
	}
	release, retry, ok := s.gate.acquire()
	if !ok {
		shedResponse(w, retry, errors.New("overloaded"))
		return
	}
	defer release()
	ans, err := s.sys.Query(req.Protein)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	ctx, cancel := s.rankingContext(r, req.TimeoutMs)
	defer cancel()
	res, err := ans.TopKCtx(ctx, req.K, biorank.Options(req.estimatorWire))
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	answers := make([]topkAnswer, len(res.Answers))
	for i, a := range res.Answers {
		answers[i] = topkAnswer{
			Kind:   a.Kind,
			Label:  a.Label,
			Name:   biorank.FunctionName(a.Label),
			Score:  a.Score,
			Lo:     a.Lo,
			Hi:     a.Hi,
			Trials: a.Trials,
			Exact:  a.Exact,
		}
	}
	if req.Order == "lower" {
		// Risk-averse presentation: within the certified top k, lead with
		// the answers whose reliability is best guaranteed. Stable, so
		// equal lower bounds keep the score order.
		sort.SliceStable(answers, func(i, j int) bool { return answers[i].Lo > answers[j].Lo })
	}
	resp := map[string]any{
		"protein":         req.Protein,
		"k":               req.K,
		"candidates":      res.Candidates,
		"trials":          res.Trials,
		"candidateTrials": res.CandidateTrials,
		"pruned":          res.Pruned,
		"rounds":          res.Rounds,
		"exactAnswers":    res.ExactAnswers,
		"answers":         answers,
	}
	if res.Truncated {
		resp["truncated"] = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStats reports engine result- and plan-cache counters and server
// configuration.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"world":    s.world,
		"uptime":   time.Since(s.started).String(),
		"proteins": len(s.sys.Proteins()),
		"sources":  s.sys.Sources(),
		"cache":    s.sys.CacheStats(),
		"plans":    s.sys.PlanStats(),
		"engine":   s.sys.EngineStats(),
		"ready":    s.ready.Load(),
	}
	if s.gate != nil {
		out["gate"] = map[string]any{
			"pending":  s.gate.Pending(),
			"capacity": s.gate.Capacity(),
			"shed":     s.gate.Shed(),
		}
	}
	if ls, ok := s.sys.LiveStats(); ok {
		out["live"] = ls
	}
	if ds, ok := s.sys.DurabilityStats(); ok {
		out["durability"] = ds
	}
	if s.ingest != nil {
		out["ingest"] = s.ingest.stats()
	}
	writeJSON(w, http.StatusOK, out)
}

// writeJSON writes v as indented JSON with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("biorankd: encode: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
