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
// Every JSON body is written compactly, one value per response with no
// indentation; there is no pretty-print option (pipe through a
// formatter such as python3 -m json.tool to read one).
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
// of the same size, derived by the same rule (engine.AdmissionFor):
// -max-inflight (the worker count when 0) plus -max-queue. Requests
// beyond capacity fail fast with 429 Too Many Requests and a
// Retry-After header estimating when capacity frees up.
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
	"reflect"
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

	if err := sys.ConfigureEngine(biorank.EngineConfig{MaxInFlight: *maxInFlight, MaxQueue: *maxQueue}); err != nil {
		fmt.Fprintln(os.Stderr, "biorankd:", err)
		os.Exit(1)
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
// maxQueue are the engine's admission flags: engine.AdmissionFor turns
// them into the budget of the gate guarding the engine-bypassing
// endpoints, by the rule that sizes the engine's own.
func newServer(sys *biorank.System, world string, defaultTimeout time.Duration, maxInFlight, maxQueue int) *server {
	s := &server{sys: sys, world: world, started: time.Now(), defaultTimeout: defaultTimeout}
	if adm := engine.AdmissionFor(engine.Config{MaxInFlight: maxInFlight, MaxQueue: maxQueue}); adm.Capacity() > 0 {
		s.gate = &gate{adm}
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

// shedResponse writes the 429 of a load-shed request: body, under a
// Retry-After header of retry in whole seconds, rounded up, minimum 1.
func shedResponse(w http.ResponseWriter, retry time.Duration, body any) {
	secs := max(int64((retry+time.Second-1)/time.Second), 1)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, http.StatusTooManyRequests, body)
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

// param binds one GET query parameter to the field it sets: a *string,
// *[]biorank.Method (comma-separated), *int, *uint64 or *bool.
type param struct {
	key string
	dst any
}

// estimatorParams lists the GET query parameters that set o's fields,
// followed by extra.
func estimatorParams(o *biorank.Options, extra ...param) []param {
	return append([]param{{"trials", &o.Trials}, {"seed", &o.Seed}, {"reduce", &o.Reduce}, {"exact", &o.Exact},
		{"workers", &o.Workers}, {"adaptive", &o.Adaptive}, {"topk", &o.TopK}, {"worlds", &o.Worlds},
		{"planner", &o.Planner}}, extra...)
}

// decodeRequest reads r into v: a POST body as JSON, or, when get lists
// the endpoint's GET query parameters, a GET's parameters in list order,
// so a request with several malformed values always names the first.
// Any other method is answered 405 and a malformed request 400; false
// means it has answered.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any, get []param) bool {
	var err error
	switch {
	case r.Method == http.MethodPost:
		if err = json.NewDecoder(r.Body).Decode(v); err != nil {
			err = fmt.Errorf("bad JSON: %s", jsonError(err))
		}
	case r.Method == http.MethodGet && get != nil:
		err = parseParams(r.URL.Query(), get)
	default:
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return false
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// jsonError words a JSON decoding error for a 400 body. A type error
// names the key and the kinds of JSON value wanted and sent ("trials:
// want integer, got string"), not the Go types it was decoded into;
// any other error keeps encoding/json's text.
func jsonError(err error) string {
	var te *json.UnmarshalTypeError
	if !errors.As(err, &te) {
		return err.Error()
	}
	msg := "want " + jsonKind(te.Type) + ", got " + te.Value
	if te.Field != "" {
		msg = te.Field[strings.LastIndexByte(te.Field, '.')+1:] + ": " + msg
	}
	return msg
}

// jsonKind names the kind of JSON value that decodes into t.
func jsonKind(t reflect.Type) string {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return "integer"
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return "non-negative integer"
	case reflect.Float32, reflect.Float64:
		return "number"
	case reflect.String:
		return "string"
	case reflect.Bool:
		return "boolean"
	case reflect.Slice, reflect.Array:
		return "array"
	case reflect.Struct, reflect.Map:
		return "object"
	}
	return "value"
}

// parseParams sets every listed parameter present in q, in list order.
func parseParams(q url.Values, params []param) error {
	for _, p := range params {
		v := q.Get(p.key)
		if v == "" {
			continue
		}
		var err error
		switch dst := p.dst.(type) {
		case *string:
			*dst = v
		case *[]biorank.Method:
			for _, m := range strings.Split(v, ",") {
				*dst = append(*dst, biorank.Method(m))
			}
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

// queryRequest is the wire form of one ranking request. Like the /rank
// and /topk requests it embeds the estimator, whose JSON tags are the
// estimator fields' wire names.
type queryRequest struct {
	Protein string           `json:"protein"`
	Methods []biorank.Method `json:"methods,omitempty"`
	biorank.Options
	// TimeoutMs bounds this request's latency in milliseconds,
	// overriding the server's -default-timeout; on expiry the ranking
	// is returned truncated, not failed.
	TimeoutMs int `json:"timeoutMs,omitempty"`
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
	Protein  string                            `json:"protein"`
	Error    string                            `json:"error,omitempty"`
	Answers  int                               `json:"answers,omitempty"`
	Rankings map[biorank.Method][]scoredAnswer `json:"rankings,omitempty"`
	Cached   map[biorank.Method]bool           `json:"cached,omitempty"`
	// Truncated reports that at least one method's ranking was cut
	// short by the request deadline and holds partial (but
	// interval-valid) estimates.
	Truncated bool `json:"truncated,omitempty"`
	// RetryAfterMs accompanies an overload error: the suggested backoff
	// before retrying this request.
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

// wireRankings converts the facade's rankings into wire answers, named
// by their functions when named is set, and reports whether any
// method's ranking was truncated. Every method ranks the same answers,
// so each label is named once and its name shared.
func wireRankings(rankings map[biorank.Method][]biorank.ScoredAnswer, truncated map[biorank.Method]bool, named bool) (map[biorank.Method][]scoredAnswer, bool) {
	out := make(map[biorank.Method][]scoredAnswer, len(rankings))
	anyTruncated := false
	var names map[string]string
	for m, sa := range rankings {
		answers := make([]scoredAnswer, len(sa))
		if named && names == nil {
			names = make(map[string]string, len(sa))
		}
		for i := range sa {
			a := &sa[i]
			answers[i] = scoredAnswer{Kind: a.Kind, Label: a.Label, Score: a.Score, RankLo: a.RankLo, RankHi: a.RankHi, Exact: a.Exact}
			if a.HasBounds {
				answers[i].Lo, answers[i].Hi = &a.Lo, &a.Hi
			}
			if named {
				name, ok := names[a.Label]
				if !ok {
					name = biorank.FunctionName(a.Label)
					names[a.Label] = name
				}
				answers[i].Name = name
			}
		}
		out[m] = answers
		anyTruncated = anyTruncated || truncated[m]
	}
	return out, anyTruncated
}

// handleQuery serves batched exploratory queries from the engine. It
// accepts GET query parameters, a single JSON object, or a
// {"requests":[...]} batch.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var envelope struct {
		Requests []queryRequest `json:"requests"`
		queryRequest
	}
	if !decodeRequest(w, r, &envelope, estimatorParams(&envelope.Options, param{"timeoutMs", &envelope.TimeoutMs},
		param{"protein", &envelope.Protein}, param{"methods", &envelope.Methods})) {
		return
	}
	reqs := envelope.Requests
	if len(reqs) == 0 {
		reqs = []queryRequest{envelope.queryRequest}
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
			Methods: q.Methods,
			Options: q.Options,
			Timeout: s.requestTimeout(q.TimeoutMs),
		}
	}
	results := s.sys.QueryBatchCtx(r.Context(), batch)
	resp := queryResponse{Results: make([]queryResult, len(results))}
	allShed, maxRetry := len(results) > 0, time.Duration(0)
	for i, res := range results {
		out := &resp.Results[i]
		out.Protein = res.Protein
		if res.Err != nil {
			out.Error = res.Err.Error()
			if d, ok := biorank.RetryAfter(res.Err); ok {
				out.RetryAfterMs = d.Milliseconds()
				maxRetry = max(maxRetry, d)
			} else {
				allShed = false
			}
			continue
		}
		allShed = false
		out.Answers = res.Answers.Len()
		out.Rankings, out.Truncated = wireRankings(res.Rankings, res.Truncated, true)
		out.Cached = res.Cached
	}
	// A batch shed in its entirety becomes an HTTP-level 429 so plain
	// clients back off; mixed batches stay 200 with per-result errors.
	if allShed {
		resp.Error = "overloaded"
		shedResponse(w, maxRetry, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// rankRequest is the wire form of /rank: a serialized query graph plus
// evaluation options.
type rankRequest struct {
	Graph   json.RawMessage  `json:"graph"`
	Methods []biorank.Method `json:"methods,omitempty"`
	biorank.Options
	// TimeoutMs bounds the ranking's latency in milliseconds,
	// overriding -default-timeout; expiry truncates rather than fails.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// handleRank ranks a caller-supplied query graph under the requested
// methods, sharing the deserialized graph across all of them.
func (s *server) handleRank(w http.ResponseWriter, r *http.Request) {
	var req rankRequest
	if !decodeRequest(w, r, &req, nil) {
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
		shedResponse(w, retry, errorBody{"overloaded"})
		return
	}
	defer release()
	ans := &biorank.Answers{}
	if err := ans.UnmarshalJSON(req.Graph); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad graph: %s", jsonError(err)))
		return
	}
	ctx, cancel := s.rankingContext(r, req.TimeoutMs)
	defer cancel()
	all, truncated, err := ans.RankAllCtx(ctx, req.Options, req.Methods...)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	resp := rankResponse{Answers: ans.Len()}
	resp.Nodes, resp.Edges = ans.GraphSize()
	resp.Rankings, resp.Truncated = wireRankings(all, truncated, false)
	writeJSON(w, http.StatusOK, resp)
}

// topkRequest is the wire form of /topk. Order "lower" re-sorts the
// certified top k by interval lower bound (descending, stable). K, not
// the estimator's topk field, sets the race's k; it is 5 when absent.
type topkRequest struct {
	Protein string `json:"protein"`
	K       int    `json:"k,omitempty"`
	Order   string `json:"order,omitempty"`
	biorank.Options
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
	if !decodeRequest(w, r, &req, estimatorParams(&req.Options, param{"k", &req.K},
		param{"timeoutMs", &req.TimeoutMs}, param{"protein", &req.Protein}, param{"order", &req.Order})) {
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
		shedResponse(w, retry, errorBody{"overloaded"})
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
	res, err := ans.TopKCtx(ctx, req.K, req.Options)
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
	writeJSON(w, http.StatusOK, topkResponse{
		Answers:         answers,
		CandidateTrials: res.CandidateTrials,
		Candidates:      res.Candidates,
		ExactAnswers:    res.ExactAnswers,
		K:               req.K,
		Protein:         req.Protein,
		Pruned:          res.Pruned,
		Rounds:          res.Rounds,
		Trials:          res.Trials,
		Truncated:       res.Truncated,
	})
}

// handleStats reports engine result- and plan-cache counters and server
// configuration.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := statsResponse{
		Cache:    s.sys.CacheStats(),
		Engine:   s.sys.EngineStats(),
		Plans:    s.sys.PlanStats(),
		Proteins: len(s.sys.Proteins()),
		Ready:    s.ready.Load(),
		Sources:  s.sys.Sources(),
		Uptime:   time.Since(s.started).String(),
		World:    s.world,
	}
	if s.gate != nil {
		out.Gate = &gateStats{Capacity: s.gate.Capacity(), Pending: s.gate.Pending(), Shed: s.gate.Shed()}
	}
	if ls, ok := s.sys.LiveStats(); ok {
		out.Live = &ls
	}
	if ds, ok := s.sys.DurabilityStats(); ok {
		out.Durability = &ds
	}
	if s.ingest != nil {
		st := s.ingest.stats()
		out.Ingest = &st
	}
	writeJSON(w, http.StatusOK, out)
}

// The bodies below list their fields in sorted JSON-name order: the key
// order encoding/json gives a map, which is the order these bodies have
// always had on the wire and which TestStatusResponseBytes pins.
type (
	// errorBody is every error response.
	errorBody struct {
		Error string `json:"error"`
	}
	// queryResponse is /query's body; Error is set when the whole batch
	// was shed.
	queryResponse struct {
		Error   string        `json:"error,omitempty"`
		Results []queryResult `json:"results"`
	}
	rankResponse struct {
		Answers   int                               `json:"answers"`
		Edges     int                               `json:"edges"`
		Nodes     int                               `json:"nodes"`
		Rankings  map[biorank.Method][]scoredAnswer `json:"rankings"`
		Truncated bool                              `json:"truncated,omitempty"`
	}
	topkResponse struct {
		Answers         []topkAnswer `json:"answers"`
		CandidateTrials int64        `json:"candidateTrials"`
		Candidates      int          `json:"candidates"`
		ExactAnswers    int          `json:"exactAnswers"`
		K               int          `json:"k"`
		Protein         string       `json:"protein"`
		Pruned          int          `json:"pruned"`
		Rounds          int          `json:"rounds"`
		Trials          int64        `json:"trials"`
		Truncated       bool         `json:"truncated,omitempty"`
	}
	// statsResponse is /stats' body; the pointer sections are present
	// only when the server has them.
	statsResponse struct {
		Cache      engine.CacheStats        `json:"cache"`
		Durability *biorank.DurabilityStats `json:"durability,omitempty"`
		Engine     engine.Stats             `json:"engine"`
		Gate       *gateStats               `json:"gate,omitempty"`
		Ingest     *ingestStats             `json:"ingest,omitempty"`
		Live       *biorank.LiveStats       `json:"live,omitempty"`
		Plans      engine.PlanCacheStats    `json:"plans"`
		Proteins   int                      `json:"proteins"`
		Ready      bool                     `json:"ready"`
		Sources    []string                 `json:"sources"`
		Uptime     string                   `json:"uptime"`
		World      string                   `json:"world"`
	}
	gateStats struct {
		Capacity int    `json:"capacity"`
		Pending  int64  `json:"pending"`
		Shed     uint64 `json:"shed"`
	}
	ingestStats struct {
		Applied     uint64 `json:"applied"`
		Capacity    int    `json:"capacity"`
		Dropped     uint64 `json:"dropped"`
		Enqueued    uint64 `json:"enqueued"`
		Errors      uint64 `json:"errors"`
		Invalidated int64  `json:"invalidated"`
		Queued      int    `json:"queued"`
	}
	// ingestAccepted acknowledges an async /ingest batch.
	ingestAccepted struct {
		Accepted int `json:"accepted"`
		Queued   int `json:"queued"`
	}
	// ingestFailed reports a sync /ingest batch that failed part way,
	// with the effect of the deltas applied before the failing one.
	ingestFailed struct {
		Error  string               `json:"error"`
		Result biorank.IngestResult `json:"result"`
	}
)

// writeJSON writes v as compact JSON with the given status code. It is
// the one writer of every response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("biorankd: encode: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{err.Error()})
}
