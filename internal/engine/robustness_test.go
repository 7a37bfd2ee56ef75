package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"biorank/internal/chaos"
	"biorank/internal/graph"
	"biorank/internal/rank"
)

// silencePanicLog swaps the panic logger for a capture during the test,
// so expected stack traces don't spray the test output, and returns the
// captured lines.
func silencePanicLog(t *testing.T) *[]string {
	t.Helper()
	var mu sync.Mutex
	var lines []string
	old := logPanic
	logPanic = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, format)
	}
	t.Cleanup(func() { logPanic = old })
	return &lines
}

// A panicking resolver must yield a per-request error and leave the
// pool serving subsequent batches — the worker goroutine must survive.
func TestEnginePanicIsolation(t *testing.T) {
	logged := silencePanicLog(t)
	resolver, proteins := testResolver(t)
	cr := &chaos.Resolver{Inner: resolver, PanicEvery: 2}
	e := New(cr, Config{Workers: 2})
	defer e.Close()

	// Call 1 succeeds, call 2 panics, and the pool must keep serving:
	// run enough singles that every worker eats at least one panic.
	var panicked, served int
	for i := 0; i < 10; i++ {
		resp := e.RankCtx(context.Background(), Request{Source: proteins[0], Methods: []string{"inedge"}})
		switch {
		case resp.Err == nil:
			served++
		case strings.Contains(resp.Err.Error(), "internal error"):
			panicked++
		default:
			t.Fatalf("call %d: unexpected error %v", i, resp.Err)
		}
	}
	if panicked != 5 || served != 5 {
		t.Fatalf("panicked=%d served=%d, want 5/5", panicked, served)
	}
	if len(*logged) == 0 {
		t.Fatalf("recovered panics were not logged")
	}
	// The pool is still fully functional for a real batch.
	reqs := make([]Request, len(proteins))
	for i, p := range proteins {
		reqs[i] = Request{Source: p, Methods: []string{"inedge"}}
	}
	e2 := New(resolver, Config{Workers: 2})
	defer e2.Close()
	want := e2.QueryBatchCtx(context.Background(), reqs)
	cr.PanicEvery = 0
	got := e.QueryBatchCtx(context.Background(), reqs)
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("post-panic batch request %d failed: %v", i, got[i].Err)
		}
		if len(got[i].Results["inedge"].Scores) != len(want[i].Results["inedge"].Scores) {
			t.Fatalf("post-panic batch request %d: wrong answer count", i)
		}
	}
}

// A panicking estimator (not resolver) is recovered the same way: feed
// the engine a poisoned pre-resolved graph via a panicking ranker path.
// The cheapest estimator-level panic is a nil-graph deref provoked by a
// resolver that returns a graph with a nil inner Graph — validate
// catches that as an error, so instead panic inside the resolver to
// stand in for any execute-path panic (the recover wraps the whole
// execute body either way).
func TestEnginePanicDoesNotPoisonCache(t *testing.T) {
	silencePanicLog(t)
	qg := diamond()
	calls := 0
	r := ResolverFunc(func(_ context.Context, s string) (*graph.QueryGraph, error) {
		calls++
		if calls == 1 {
			panic("poisoned")
		}
		return qg, nil
	})
	e := New(r, Config{Workers: 1})
	defer e.Close()
	if resp := e.RankCtx(context.Background(), Request{Source: "x", Methods: []string{"inedge"}}); resp.Err == nil {
		t.Fatalf("poisoned request did not fail")
	}
	resp := e.RankCtx(context.Background(), Request{Source: "x", Methods: []string{"inedge"}})
	if resp.Err != nil {
		t.Fatalf("request after panic failed: %v", resp.Err)
	}
	if resp.Cached["inedge"] {
		t.Fatalf("panicked request left a cache entry")
	}
}

// Admission control: with MaxInFlight+MaxQueue bounded and the pool
// wedged, excess requests shed fast with an OverloadError carrying a
// positive RetryAfter, and the shed counter advances.
func TestEngineAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	qg := diamond()
	r := ResolverFunc(func(_ context.Context, s string) (*graph.QueryGraph, error) {
		<-release
		return qg, nil
	})
	e := New(r, Config{Workers: 2, MaxInFlight: 2, MaxQueue: 2})
	defer e.Close()

	// Fill capacity (2 in flight + 2 queued) from background batches.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.RankCtx(context.Background(), Request{Source: "held", Methods: []string{"inedge"}})
		}(i)
	}
	// Wait until all four tokens are claimed.
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().InFlight+e.Stats().Queued < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never absorbed 4 requests: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// The fifth request must shed, not block.
	resp := e.RankCtx(context.Background(), Request{Source: "extra", Methods: []string{"inedge"}})
	if !errors.Is(resp.Err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", resp.Err)
	}
	var oe *OverloadError
	if !errors.As(resp.Err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("shed error carries no RetryAfter: %v", resp.Err)
	}
	if s := e.Stats(); s.Shed == 0 || s.Capacity != 4 {
		t.Fatalf("stats after shed: %+v", s)
	}

	close(release)
	wg.Wait()

	// With the backlog drained, the engine admits again.
	resp = e.RankCtx(context.Background(), Request{Source: "after", Methods: []string{"inedge"}})
	if resp.Err != nil {
		t.Fatalf("post-drain request failed: %v", resp.Err)
	}
	if s := e.Stats(); s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("counters did not return to zero: %+v", s)
	}
}

// A request whose context is cancelled while queued is skipped with the
// context's error; a request whose DEADLINE expired still executes and
// returns truncated partial results.
func TestEngineContextSemantics(t *testing.T) {
	qg := diamond()
	r := ResolverFunc(func(_ context.Context, s string) (*graph.QueryGraph, error) { return qg, nil })

	t.Run("cancelled", func(t *testing.T) {
		e := New(r, Config{Workers: 1})
		defer e.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		resp := e.RankCtx(ctx, Request{Source: "q", Methods: []string{"reliability"}})
		if !errors.Is(resp.Err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", resp.Err)
		}
	})

	t.Run("deadline-truncates", func(t *testing.T) {
		e := New(r, Config{Workers: 1, CacheSize: -1})
		defer e.Close()
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		resp := e.RankCtx(ctx, Request{Source: "q", Methods: []string{"reliability"}, Options: Options{Trials: 4000}})
		if resp.Err != nil {
			t.Fatalf("expired deadline returned error %v, want truncated partials", resp.Err)
		}
		res := resp.Results["reliability"]
		if !res.Truncated {
			t.Fatalf("expired deadline did not truncate: %+v", res)
		}
		for i := range res.Scores {
			if res.Lo[i] > res.Scores[i] || res.Scores[i] > res.Hi[i] {
				t.Fatalf("answer %d: score %g outside [%g, %g]", i, res.Scores[i], res.Lo[i], res.Hi[i])
			}
		}
	})

	t.Run("request-timeout", func(t *testing.T) {
		e := New(r, Config{Workers: 1, CacheSize: -1})
		defer e.Close()
		resp := e.RankCtx(context.Background(), Request{Source: "q", Methods: []string{"reliability"}, Timeout: time.Nanosecond, Options: Options{Trials: 4000}})
		if resp.Err != nil {
			t.Fatalf("timeout returned error %v, want truncated partials", resp.Err)
		}
		if !resp.Results["reliability"].Truncated {
			t.Fatalf("per-request timeout did not truncate")
		}
	})
}

// Truncated results must never be served from the cache: a deadline
// run followed by an unhurried run must re-rank, and the unhurried
// result must not be truncated.
func TestEngineTruncatedNeverCached(t *testing.T) {
	qg := diamond()
	r := ResolverFunc(func(_ context.Context, s string) (*graph.QueryGraph, error) { return qg, nil })
	e := New(r, Config{Workers: 1})
	defer e.Close()

	resp := e.RankCtx(context.Background(), Request{Source: "q", Methods: []string{"reliability"}, Timeout: time.Nanosecond})
	if resp.Err != nil || !resp.Results["reliability"].Truncated {
		t.Fatalf("setup: want truncated result, got err=%v res=%+v", resp.Err, resp.Results["reliability"])
	}

	resp = e.RankCtx(context.Background(), Request{Source: "q", Methods: []string{"reliability"}})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Cached["reliability"] {
		t.Fatalf("truncated result was served from cache")
	}
	if resp.Results["reliability"].Truncated {
		t.Fatalf("unhurried re-run still truncated")
	}

	// The full result DID get cached.
	resp = e.RankCtx(context.Background(), Request{Source: "q", Methods: []string{"reliability"}})
	if !resp.Cached["reliability"] {
		t.Fatalf("complete result was not cached")
	}
}

// A completed run under a deadline must be bit-identical to a run
// without one, so deadline presence alone can't perturb cached scores.
func TestEngineDeadlineCompletedBitIdentical(t *testing.T) {
	qg := diamond()
	r := ResolverFunc(func(_ context.Context, s string) (*graph.QueryGraph, error) { return qg, nil })
	e := New(r, Config{Workers: 1, CacheSize: -1})
	defer e.Close()

	for _, opts := range []Options{
		{Trials: 2000, Seed: 9},
		{Trials: 2000, Seed: 9, Worlds: true},
		{Trials: 2000, Seed: 9, Workers: 2},
	} {
		plain := e.RankCtx(context.Background(), Request{Source: "q", Methods: []string{"reliability"}, Options: opts})
		timed := e.RankCtx(context.Background(), Request{Source: "q", Methods: []string{"reliability"}, Options: opts, Timeout: time.Hour})
		if plain.Err != nil || timed.Err != nil {
			t.Fatalf("errs: %v / %v", plain.Err, timed.Err)
		}
		a, b := plain.Results["reliability"], timed.Results["reliability"]
		if b.Truncated {
			t.Fatalf("opts %+v: hour-long deadline truncated", opts)
		}
		for i := range a.Scores {
			if a.Scores[i] != b.Scores[i] {
				t.Fatalf("opts %+v: deadline run diverged: %v != %v", opts, a.Scores[i], b.Scores[i])
			}
		}
	}
}

// chaos.Resolver's injected latency must be interruptible: a cancelled
// request stuck in resolver latency returns promptly.
func TestEngineChaosLatencyCancellation(t *testing.T) {
	qg := diamond()
	cr := &chaos.Resolver{
		Inner:   chaos.InnerFunc(func(context.Context, string) (*graph.QueryGraph, error) { return qg, nil }),
		Latency: time.Hour,
	}
	e := New(cr, Config{Workers: 1})
	defer e.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp := e.RankCtx(ctx, Request{Source: "q", Methods: []string{"inedge"}})
	if time.Since(start) > 10*time.Second {
		t.Fatalf("cancelled resolve blocked for %s", time.Since(start))
	}
	if resp.Err == nil {
		t.Fatalf("cancelled resolve returned no error")
	}
}

// Injected error schedules surface as per-request errors without
// disturbing neighboring requests in the same batch.
func TestEngineChaosErrorIsolation(t *testing.T) {
	qg := diamond()
	cr := &chaos.Resolver{
		Inner:    chaos.InnerFunc(func(context.Context, string) (*graph.QueryGraph, error) { return qg, nil }),
		ErrEvery: 2,
	}
	e := New(cr, Config{Workers: 1, CacheSize: -1})
	defer e.Close()

	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{Source: "q", Methods: []string{"inedge"}}
	}
	out := e.QueryBatchCtx(context.Background(), reqs)
	var failed, ok int
	for _, resp := range out {
		if resp.Err != nil {
			if !errors.Is(resp.Err, chaos.ErrInjected) {
				t.Fatalf("unexpected error %v", resp.Err)
			}
			failed++
		} else {
			ok++
		}
	}
	if failed != 3 || ok != 3 {
		t.Fatalf("failed=%d ok=%d, want 3/3", failed, ok)
	}
}

// A request that names an unknown method fails before the resolver
// runs, so it costs no integration; and no error response carries a
// graph — including a ranking error after a successful resolution
// (pathcount on a cyclic graph).
func TestEngineErrorsSkipResolveAndCarryNoGraph(t *testing.T) {
	g := graph.New(3, 3)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("X", "a", 1)
	tgt := g.AddNode("A", "t", 1)
	g.AddEdge(s, a, "r", 1)
	g.AddEdge(a, a, "r", 1)
	g.AddEdge(a, tgt, "r", 1)
	cyclic, err := graph.NewQueryGraph(g, s, []graph.NodeID{tgt})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	r := ResolverFunc(func(context.Context, string) (*graph.QueryGraph, error) {
		calls.Add(1)
		return cyclic, nil
	})
	e := New(r, Config{Workers: 1})
	defer e.Close()

	resp := e.RankCtx(context.Background(), Request{Source: "q", Methods: []string{"inedge", "bogus"}})
	var unknown *rank.UnknownMethodError
	if !errors.As(resp.Err, &unknown) {
		t.Fatalf("want UnknownMethodError, got %v", resp.Err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("unknown method made %d resolver calls, want 0", n)
	}
	if resp.Graph != nil {
		t.Fatal("unknown-method error response carries a graph")
	}

	resp = e.RankCtx(context.Background(), Request{Source: "q", Methods: []string{"pathcount"}})
	if !errors.Is(resp.Err, rank.ErrCyclicPathCount) {
		t.Fatalf("want ErrCyclicPathCount, got %v", resp.Err)
	}
	if calls.Load() != 1 {
		t.Fatalf("resolver calls = %d, want 1", calls.Load())
	}
	if resp.Graph != nil || resp.Results != nil || resp.Cached != nil {
		t.Fatalf("ranking error response is not otherwise zero: %+v", resp)
	}
}

// The engine hands the caller's context to the resolver: a value set on
// the QueryBatchCtx context is visible inside ResolveCtx, and a request
// with a Timeout sees a deadline counted from submission, not from when
// a worker picks it up.
func TestEngineResolverSeesCallerContext(t *testing.T) {
	type key struct{}
	type seen struct {
		val      any
		deadline time.Time
		ok       bool
	}
	var mu sync.Mutex
	got := map[string]seen{}
	started, hold := make(chan struct{}), make(chan struct{})
	qg := diamond()
	r := ResolverFunc(func(ctx context.Context, s string) (*graph.QueryGraph, error) {
		if s == "slow" {
			close(started)
			<-hold
		}
		d, ok := ctx.Deadline()
		mu.Lock()
		got[s] = seen{ctx.Value(key{}), d, ok}
		mu.Unlock()
		return qg, nil
	})
	// One worker, and a queue so submission never waits for it: "timed"
	// sits in the queue while "slow" holds the worker.
	e := New(r, Config{Workers: 1, MaxQueue: 2})
	defer e.Close()

	const timeout = time.Hour
	ctx := context.WithValue(context.Background(), key{}, "caller")
	submitted := time.Now()
	done := make(chan []Response)
	go func() {
		done <- e.QueryBatchCtx(ctx, []Request{
			{Source: "slow", Methods: []string{"inedge"}},
			{Source: "timed", Methods: []string{"inedge"}, Timeout: timeout},
		})
	}()
	<-started
	for e.Stats().Queued < 1 { // "timed" admitted behind "slow"
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a queue wait the deadline must not include
	queued := time.Now()
	close(hold)
	for _, resp := range <-done {
		if resp.Err != nil {
			t.Fatalf("%s: %v", resp.Source, resp.Err)
		}
	}
	for _, src := range []string{"slow", "timed"} {
		if v := got[src].val; v != "caller" {
			t.Fatalf("%s: resolver saw context value %v, want %q", src, v, "caller")
		}
	}
	if got["slow"].ok {
		t.Fatalf("request without Timeout saw a deadline %v", got["slow"].deadline)
	}
	timed := got["timed"]
	if !timed.ok {
		t.Fatal("request with Timeout saw no deadline")
	}
	if timed.deadline.Before(submitted.Add(timeout)) || timed.deadline.After(queued.Add(timeout)) {
		t.Fatalf("deadline %v not within submission+Timeout [%v, %v]",
			timed.deadline, submitted.Add(timeout), queued.Add(timeout))
	}
}
