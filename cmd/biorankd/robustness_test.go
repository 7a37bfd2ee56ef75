package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"biorank"
	"biorank/internal/engine"
)

func TestReadyzProbe(t *testing.T) {
	s := testServer(t)

	w := httptest.NewRecorder()
	s.handleReady(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("before start: status %d, want 503", w.Code)
	}

	s.ready.Store(true)
	defer s.ready.Store(false)
	w = httptest.NewRecorder()
	s.handleReady(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("ready: status %d, want 200", w.Code)
	}

	// Draining flips it back to 503 while /healthz stays alive.
	s.ready.Store(false)
	w = httptest.NewRecorder()
	s.handleReady(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", w.Code)
	}
}

func TestGateShedsWith429(t *testing.T) {
	s := testServer(t)
	s.gate = &gate{engine.AdmissionFor(engine.Config{MaxInFlight: 1})}
	defer func() { s.gate = nil }()

	release, _, ok := s.gate.acquire()
	if !ok {
		t.Fatal("first acquire shed on an empty gate")
	}
	defer release()

	for _, ep := range []struct {
		name, target, body string
		h                  http.HandlerFunc
	}{
		{"topk", "/topk?protein=" + s.sys.Proteins()[0], "", s.handleTopK},
		{"rank", "/rank", `{"graph":{"nodes":[]}}`, s.handleRank},
	} {
		var r *http.Request
		if ep.body == "" {
			r = httptest.NewRequest(http.MethodGet, ep.target, nil)
		} else {
			r = httptest.NewRequest(http.MethodPost, ep.target, strings.NewReader(ep.body))
		}
		w := httptest.NewRecorder()
		ep.h(w, r)
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429 (%s)", ep.name, w.Code, w.Body.String())
		}
		ra := w.Header().Get("Retry-After")
		if ra == "" {
			t.Fatalf("%s: missing Retry-After header", ep.name)
		}
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Fatalf("%s: Retry-After %q is not a positive whole-second count", ep.name, ra)
		}
	}
}

// TestGateBudgetMatchesEngine pins the one budget rule: for the same
// -max-inflight and -max-queue flags, the gate guarding /rank and /topk
// admits exactly as many requests as the engine behind /query.
func TestGateBudgetMatchesEngine(t *testing.T) {
	for _, f := range []struct{ inFlight, queue int }{{0, 3}, {1, 0}, {2, 5}} {
		sys, err := biorank.NewDemoSystem(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.ConfigureEngine(biorank.EngineConfig{MaxInFlight: f.inFlight, MaxQueue: f.queue}); err != nil {
			t.Fatal(err)
		}
		gate := newServer(sys, "demo", 0, f.inFlight, f.queue).gate.Capacity()
		eng := sys.EngineStats().Capacity
		sys.Close()
		if gate != eng {
			t.Errorf("-max-inflight %d -max-queue %d: gate capacity %d, engine capacity %d",
				f.inFlight, f.queue, gate, eng)
		}
	}
}

func TestQueryTimeoutTruncates(t *testing.T) {
	s := testServer(t)
	body := `{"protein":"` + s.sys.Proteins()[0] + `","methods":["reliability"],"trials":100000000,"seed":1,"timeoutMs":1}`
	code, out := do(t, s.handleQuery, http.MethodPost, "/query", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	res := out["results"].([]any)[0].(map[string]any)
	if errMsg, ok := res["error"]; ok && errMsg != "" {
		t.Fatalf("deadline produced an error instead of truncation: %v", errMsg)
	}
	if res["truncated"] != true {
		t.Fatalf(`want "truncated": true, got %v`, res)
	}
	ranked, ok := res["rankings"].(map[string]any)["reliability"].([]any)
	if !ok || len(ranked) == 0 {
		t.Fatalf("truncated response lost its partial ranking: %v", res)
	}
	for _, a := range ranked {
		m := a.(map[string]any)
		score := m["score"].(float64)
		lo, hasLo := m["lo"].(float64)
		hi, hasHi := m["hi"].(float64)
		if !hasLo || !hasHi {
			t.Fatalf("truncated answer missing confidence bounds: %v", m)
		}
		if !(0 <= lo && lo <= score && score <= hi && hi <= 1) {
			t.Fatalf("invalid truncated interval lo=%v score=%v hi=%v", lo, score, hi)
		}
	}
}

func TestTopKTimeoutTruncates(t *testing.T) {
	s := testServer(t)
	// An already-expired request deadline (the wall-clock-free stand-in
	// for a race that outlives its budget) must yield the current
	// standings flagged truncated, not an error.
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	r := httptest.NewRequest(http.MethodGet,
		"/topk?protein="+s.sys.Proteins()[0]+"&k=3&trials=2000&seed=1", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	s.handleTopK(w, r)
	code := w.Code
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("non-JSON response %q: %v", w.Body.String(), err)
	}
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if out["truncated"] != true {
		t.Fatalf(`want "truncated": true, got %v`, out)
	}
	answers := out["answers"].([]any)
	if len(answers) != 3 {
		t.Fatalf("truncated race lost its standings: %v", out["answers"])
	}
	for _, a := range answers {
		m := a.(map[string]any)
		lo, hi, score := m["lo"].(float64), m["hi"].(float64), m["score"].(float64)
		if !(lo <= score && score <= hi) {
			t.Fatalf("truncated answer outside its bounds: %v", m)
		}
	}
}

func TestMalformedTimeout(t *testing.T) {
	s := testServer(t)
	protein := s.sys.Proteins()[0]

	if code, _ := do(t, s.handleQuery, http.MethodGet, "/query?protein="+protein+"&timeoutMs=banana", ""); code != http.StatusBadRequest {
		t.Fatalf("GET timeoutMs=banana: status %d, want 400", code)
	}
	if code, _ := do(t, s.handleQuery, http.MethodPost, "/query", `{"protein":"`+protein+`","timeoutMs":-5}`); code != http.StatusBadRequest {
		t.Fatalf("negative timeoutMs: status %d, want 400", code)
	}
	if code, _ := do(t, s.handleQuery, http.MethodPost, "/query", `{"protein":"`+protein+`","timeoutMs":"1s"}`); code != http.StatusBadRequest {
		t.Fatalf("string timeoutMs: status %d, want 400", code)
	}
	if code, _ := do(t, s.handleTopK, http.MethodGet, "/topk?protein="+protein+"&timeoutMs=banana", ""); code != http.StatusBadRequest {
		t.Fatalf("topk timeoutMs=banana: status %d, want 400", code)
	}
	if code, _ := do(t, s.handleRank, http.MethodPost, "/rank", `{"graph":{"nodes":[]},"timeoutMs":-1}`); code != http.StatusBadRequest {
		t.Fatalf("rank negative timeoutMs: status %d, want 400", code)
	}
}

// A generous deadline must not perturb results: the response completes
// untruncated and scores match the deadline-free run.
func TestTimeoutCompletedUnchanged(t *testing.T) {
	s := testServer(t)
	body := `{"protein":"` + s.sys.Proteins()[1] + `","methods":["reliability"],"trials":2000,"seed":42}`
	codeA, outA := do(t, s.handleQuery, http.MethodPost, "/query", body)
	bodyTo := `{"protein":"` + s.sys.Proteins()[1] + `","methods":["reliability"],"trials":2000,"seed":42,"timeoutMs":` +
		strconv.Itoa(int((10 * time.Minute).Milliseconds())) + `}`
	codeB, outB := do(t, s.handleQuery, http.MethodPost, "/query", bodyTo)
	if codeA != http.StatusOK || codeB != http.StatusOK {
		t.Fatalf("status %d / %d", codeA, codeB)
	}
	resA := outA["results"].([]any)[0].(map[string]any)
	resB := outB["results"].([]any)[0].(map[string]any)
	if resB["truncated"] == true {
		t.Fatal("generous deadline reported truncation")
	}
	ra := resA["rankings"].(map[string]any)["reliability"].([]any)
	rb := resB["rankings"].(map[string]any)["reliability"].([]any)
	if len(ra) != len(rb) {
		t.Fatalf("ranking lengths differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		sa := ra[i].(map[string]any)["score"].(float64)
		sb := rb[i].(map[string]any)["score"].(float64)
		if sa != sb {
			t.Fatalf("answer %d: score %v with deadline != %v without", i, sb, sa)
		}
	}
}

// Shutdown must drain: a request in flight when Shutdown begins is
// served to completion, not dropped.
func TestShutdownDrainsInFlight(t *testing.T) {
	s := testServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.mux()}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	url := "http://" + ln.Addr().String()

	type reply struct {
		code int
		body []byte
		err  error
	}
	done := make(chan reply, 1)
	// ~0.5s of simulation in a normal run — long enough for the poll
	// below to observe it in flight, short enough to drain comfortably
	// even under the race detector's ~20x slowdown.
	body := `{"protein":"` + s.sys.Proteins()[0] + `","methods":["reliability"],"trials":300000,"seed":99}`
	go func() {
		resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- reply{code: resp.StatusCode, body: b, err: err}
	}()

	// Wait until the request is executing on the engine, then drain.
	for i := 0; i < 5000 && s.sys.EngineStats().InFlight == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("drain incomplete: %v", err)
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request dropped during drain: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request status %d during drain: %s", r.code, r.body)
	}
	var out map[string]any
	if err := json.Unmarshal(r.body, &out); err != nil {
		t.Fatalf("drained response is not complete JSON: %v", err)
	}
	res := out["results"].([]any)[0].(map[string]any)
	if errMsg, ok := res["error"]; ok && errMsg != "" {
		t.Fatalf("drained request errored: %v", errMsg)
	}
	if _, ok := res["rankings"].(map[string]any)["reliability"]; !ok {
		t.Fatalf("drained response lost its ranking: %v", res)
	}
}
