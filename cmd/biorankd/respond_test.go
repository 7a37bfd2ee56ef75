package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"biorank"
)

// statusBodies pins the exact bytes (status, Retry-After, body) of the
// responses written with a non-200 status — /query's all-shed 429 and
// /ingest's async 202 and sync 422 — and of the "live" object of /stats.
// The 422's error names the failing op by its wire spelling.
// BIORANK_GOLDEN_PRINT=1 prints them.
var statusBodies = map[string]statusBody{
	"ingest-202": {202, "", `{
  "accepted": 1,
  "queued": 1
}
`},
	"ingest-422": {422, "", `{
  "error": "biorank: ingest \"bad\": graph: delta op 0 (set-node-p): graph: delta references unknown node EntrezProtein/missing",
  "result": {
    "deltas": 1,
    "nodesAdded": 0,
    "edgesAdded": 0,
    "probChanges": 1,
    "probOnly": true,
    "version": 12169,
    "affectedSources": [
      "ABCC8"
    ],
    "invalidated": 0,
    "epochs": {
      "curation": 1
    }
  }
}
`},
	"query-429": {429, "1", `{
  "error": "overloaded",
  "results": [
    {
      "protein": "ABCC8",
      "error": "engine: overloaded, retry after 100ms",
      "retryAfterMs": 100
    },
    {
      "protein": "ABCC8",
      "error": "engine: overloaded, retry after 100ms",
      "retryAfterMs": 100
    }
  ]
}
`},
	"stats-live": {200, "", `{
    "Nodes": 5088,
    "Edges": 7080,
    "Version": 12169,
    "Deltas": 1,
    "ProbOnlyDeltas": 1,
    "NodesAdded": 0,
    "EdgesAdded": 0,
    "ProbChanges": 1,
    "Epochs": {
      "curation": 1
    }
  }`},
}

// statusBody is one pinned response.
type statusBody struct {
	code       int
	retryAfter string
	body       string
}

func TestStatusResponseBytes(t *testing.T) {
	sys, err := biorank.NewDemoSystem(3)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.EnableLive(); err != nil {
		t.Fatal(err)
	}
	if err := sys.ConfigureEngine(biorank.EngineConfig{Workers: 1, MaxInFlight: 1}); err != nil {
		t.Fatal(err)
	}
	// No refresher goroutine: the queued batch stays queued.
	s := &server{sys: sys, world: "demo", ingest: &ingester{sys: sys, queue: make(chan []biorank.IngestDelta, 4)}}
	s.ready.Store(true)
	protein := sys.Proteins()[0]
	acc := sys.Accessions(protein)[0]

	got := map[string]statusBody{}
	record := func(name string, w *httptest.ResponseRecorder) {
		got[name] = statusBody{w.Code, w.Header().Get("Retry-After"), w.Body.String()}
	}
	serve := func(h http.HandlerFunc, ctx context.Context, target, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h(w, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)).WithContext(ctx))
		return w
	}

	setP := `{"op":"set-node-p","node":{"kind":"EntrezProtein","label":"` + acc + `"},"p":0.5}`
	record("ingest-202", serve(s.handleIngest, context.Background(), "/ingest",
		`{"async":true,"source":"curation","ops":[`+setP+`]}`))
	record("ingest-422", serve(s.handleIngest, context.Background(), "/ingest",
		`{"deltas":[{"source":"curation","ops":[`+setP+`]},`+
			`{"source":"bad","ops":[{"op":"set-node-p","node":{"kind":"EntrezProtein","label":"missing"},"p":0.5}]}]}`))

	// Occupy the engine's one admission slot with a long request, then
	// send a batch that is shed in its entirety.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(s.handleQuery, ctx, "/query", `{"protein":"`+protein+`","methods":["reliability"],"trials":100000000}`)
	}()
	for deadline := time.Now().Add(10 * time.Second); sys.EngineStats().InFlight == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("long request never started")
		}
	}
	record("query-429", serve(s.handleQuery, context.Background(), "/query",
		`{"requests":[{"protein":"`+protein+`"},{"protein":"`+protein+`"}]}`))
	cancel()
	<-done

	w := httptest.NewRecorder()
	s.handleStats(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	got["stats-live"] = statusBody{w.Code, "", string(stats["live"])}

	if os.Getenv("BIORANK_GOLDEN_PRINT") != "" {
		for _, name := range []string{"ingest-202", "ingest-422", "query-429", "stats-live"} {
			fmt.Printf("\t%q: {%d, %q, `%s`},\n", name, got[name].code, got[name].retryAfter, got[name].body)
		}
	}
	for name, want := range statusBodies {
		if got[name] != want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got[name], want)
		}
	}
}
