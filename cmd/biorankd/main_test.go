package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"biorank"
)

var (
	testSrvOnce sync.Once
	testSrv     *server
)

// testServer builds one demo-world server shared by every handler test
// (world construction is the expensive part).
func testServer(t *testing.T) *server {
	t.Helper()
	testSrvOnce.Do(func() {
		sys, err := biorank.NewDemoSystem(1)
		if err != nil {
			t.Fatalf("demo system: %v", err)
		}
		testSrv = &server{sys: sys, world: "demo"}
	})
	if testSrv == nil {
		t.Fatal("demo system failed in an earlier test")
	}
	return testSrv
}

// do runs one request through a handler and decodes the JSON response.
func do(t *testing.T, h http.HandlerFunc, method, target, body string) (int, map[string]any) {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h(w, r)
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON response %q: %v", method, target, w.Body.String(), err)
	}
	return w.Code, out
}

func TestTopKHandler(t *testing.T) {
	s := testServer(t)
	proteins := s.sys.Proteins()

	t.Run("happy path GET", func(t *testing.T) {
		code, out := do(t, s.handleTopK, http.MethodGet,
			"/topk?protein="+proteins[0]+"&k=3&trials=2000&seed=1", "")
		if code != http.StatusOK {
			t.Fatalf("status %d: %v", code, out)
		}
		answers, ok := out["answers"].([]any)
		if !ok || len(answers) != 3 {
			t.Fatalf("want 3 answers, got %v", out["answers"])
		}
		first := answers[0].(map[string]any)
		for _, field := range []string{"kind", "label", "score", "lo", "hi", "trials"} {
			if _, ok := first[field]; !ok {
				t.Errorf("answer missing %q: %v", field, first)
			}
		}
		lo, hi, score := first["lo"].(float64), first["hi"].(float64), first["score"].(float64)
		if !(lo <= score && score <= hi) {
			t.Errorf("score %v outside its own bounds [%v, %v]", score, lo, hi)
		}
		if out["k"].(float64) != 3 {
			t.Errorf("k echoed as %v", out["k"])
		}
		if _, ok := out["pruned"]; !ok {
			t.Error("response missing prune telemetry")
		}
	})

	t.Run("happy path POST", func(t *testing.T) {
		code, out := do(t, s.handleTopK, http.MethodPost, "/topk",
			`{"protein":"`+proteins[0]+`","k":2,"trials":2000,"seed":1}`)
		if code != http.StatusOK {
			t.Fatalf("status %d: %v", code, out)
		}
		if answers := out["answers"].([]any); len(answers) != 2 {
			t.Fatalf("want 2 answers, got %d", len(answers))
		}
	})

	t.Run("worlds race", func(t *testing.T) {
		code, out := do(t, s.handleTopK, http.MethodGet,
			"/topk?protein="+proteins[0]+"&k=3&trials=2000&seed=1&worlds=true", "")
		if code != http.StatusOK {
			t.Fatalf("status %d: %v", code, out)
		}
		answers, ok := out["answers"].([]any)
		if !ok || len(answers) != 3 {
			t.Fatalf("want 3 answers, got %v", out["answers"])
		}
		// Bit-parallel batches round to 64-world words.
		first := answers[0].(map[string]any)
		if trials := int64(first["trials"].(float64)); trials == 0 || trials%64 != 0 {
			t.Errorf("worlds race trials %d is not a positive multiple of 64", trials)
		}
	})

	t.Run("bad method", func(t *testing.T) {
		code, _ := do(t, s.handleTopK, http.MethodDelete, "/topk", "")
		if code != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", code)
		}
	})

	t.Run("unknown protein", func(t *testing.T) {
		code, out := do(t, s.handleTopK, http.MethodGet, "/topk?protein=NOSUCH", "")
		if code != http.StatusNotFound {
			t.Fatalf("status %d, want 404 (%v)", code, out)
		}
		if out["error"] == "" {
			t.Error("missing error message")
		}
	})

	t.Run("malformed JSON", func(t *testing.T) {
		code, _ := do(t, s.handleTopK, http.MethodPost, "/topk", `{"protein":`)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
	})

	t.Run("missing protein", func(t *testing.T) {
		code, _ := do(t, s.handleTopK, http.MethodGet, "/topk", "")
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
	})

	t.Run("bad k", func(t *testing.T) {
		code, _ := do(t, s.handleTopK, http.MethodGet, "/topk?protein="+proteins[0]+"&k=-2", "")
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
		// An explicit k of 0 is rejected by both methods; only an absent
		// k defaults to 5.
		code, _ = do(t, s.handleTopK, http.MethodGet, "/topk?protein="+proteins[0]+"&k=0", "")
		if code != http.StatusBadRequest {
			t.Fatalf("GET k=0: status %d, want 400", code)
		}
		code, _ = do(t, s.handleTopK, http.MethodPost, "/topk", `{"protein":"`+proteins[0]+`","k":0}`)
		if code != http.StatusBadRequest {
			t.Fatalf("POST k:0: status %d, want 400", code)
		}
	})
}

func TestRankHandler(t *testing.T) {
	s := testServer(t)

	// Serialize a real query graph to feed /rank.
	ans, err := s.sys.Query(s.sys.Proteins()[0])
	if err != nil {
		t.Fatal(err)
	}
	graphJSON, err := ans.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("happy path", func(t *testing.T) {
		body := `{"graph":` + string(graphJSON) + `,"methods":["reliability","inedge"],"trials":1000,"seed":1}`
		code, out := do(t, s.handleRank, http.MethodPost, "/rank", body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %v", code, out)
		}
		rankings := out["rankings"].(map[string]any)
		if len(rankings) != 2 {
			t.Fatalf("want 2 methods, got %v", rankings)
		}
		if out["answers"].(float64) != float64(ans.Len()) {
			t.Errorf("answers %v, want %d", out["answers"], ans.Len())
		}
	})

	t.Run("bad method", func(t *testing.T) {
		code, _ := do(t, s.handleRank, http.MethodGet, "/rank", "")
		if code != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", code)
		}
	})

	t.Run("malformed JSON", func(t *testing.T) {
		code, _ := do(t, s.handleRank, http.MethodPost, "/rank", `{"graph":{`)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
	})

	t.Run("missing graph", func(t *testing.T) {
		code, _ := do(t, s.handleRank, http.MethodPost, "/rank", `{"trials":10}`)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
	})

	t.Run("unknown method name", func(t *testing.T) {
		body := `{"graph":` + string(graphJSON) + `,"methods":["nosuch"]}`
		code, _ := do(t, s.handleRank, http.MethodPost, "/rank", body)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422", code)
		}
	})
}

func TestQueryHandler(t *testing.T) {
	s := testServer(t)
	proteins := s.sys.Proteins()

	t.Run("happy path with topk option", func(t *testing.T) {
		body := `{"protein":"` + proteins[0] + `","methods":["reliability"],"trials":2000,"seed":1,"topk":5}`
		code, out := do(t, s.handleQuery, http.MethodPost, "/query", body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %v", code, out)
		}
		results := out["results"].([]any)
		if len(results) != 1 {
			t.Fatalf("want 1 result, got %d", len(results))
		}
		res := results[0].(map[string]any)
		if errMsg, ok := res["error"]; ok && errMsg != "" {
			t.Fatalf("result error: %v", errMsg)
		}
		if _, ok := res["rankings"].(map[string]any)["reliability"]; !ok {
			t.Fatalf("missing reliability ranking: %v", res)
		}
	})

	t.Run("worlds option runs the bit-parallel estimator", func(t *testing.T) {
		body := `{"protein":"` + proteins[0] + `","methods":["reliability"],"trials":2000,"seed":1,"worlds":true}`
		code, out := do(t, s.handleQuery, http.MethodPost, "/query", body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %v", code, out)
		}
		res := out["results"].([]any)[0].(map[string]any)
		if errMsg, ok := res["error"]; ok && errMsg != "" {
			t.Fatalf("result error: %v", errMsg)
		}
		ranked, ok := res["rankings"].(map[string]any)["reliability"].([]any)
		if !ok || len(ranked) == 0 {
			t.Fatalf("missing reliability ranking: %v", res)
		}
		for _, a := range ranked {
			score := a.(map[string]any)["score"].(float64)
			if score < 0 || score > 1 {
				t.Fatalf("worlds score %v outside [0,1]", score)
			}
		}
		// GET parses worlds= like the other booleans.
		code, _ = do(t, s.handleQuery, http.MethodGet,
			"/query?protein="+proteins[0]+"&methods=reliability&trials=2000&worlds=true", "")
		if code != http.StatusOK {
			t.Fatalf("GET worlds status %d", code)
		}
		code, _ = do(t, s.handleQuery, http.MethodGet,
			"/query?protein="+proteins[0]+"&worlds=banana", "")
		if code != http.StatusBadRequest {
			t.Fatalf("bad worlds value: status %d, want 400", code)
		}
	})

	t.Run("unknown protein is a per-result error", func(t *testing.T) {
		code, out := do(t, s.handleQuery, http.MethodPost, "/query", `{"protein":"NOSUCH"}`)
		if code != http.StatusOK {
			t.Fatalf("status %d (batch errors are per-result): %v", code, out)
		}
		res := out["results"].([]any)[0].(map[string]any)
		if res["error"] == "" {
			t.Error("missing per-result error")
		}
	})

	t.Run("bad method", func(t *testing.T) {
		code, _ := do(t, s.handleQuery, http.MethodDelete, "/query", "")
		if code != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", code)
		}
	})

	t.Run("malformed JSON", func(t *testing.T) {
		code, _ := do(t, s.handleQuery, http.MethodPost, "/query", `not json`)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
	})

	t.Run("missing protein", func(t *testing.T) {
		code, _ := do(t, s.handleQuery, http.MethodPost, "/query", `{"methods":["inedge"]}`)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
	})
}
