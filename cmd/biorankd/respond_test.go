package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"biorank"
)

// statusBodies pins the exact bytes (status, Retry-After, body) of
// biorankd's responses on the live demo world: /query's all-shed 429,
// /ingest's async 202 and sync 422 (whose error names the failing op by
// its wire spelling) and the "live" object of /stats, then every
// endpoint's success and error bodies, and /stats with its uptime
// blanked. A JSON value of the wrong type is named by its key and JSON
// kinds, never by the Go types behind the wire form. Bodies longer than
// 512 bytes are pinned by their SHA-256 digest. BIORANK_GOLDEN_PRINT=1
// prints them.
var statusBodies = map[string]statusBody{
	"ingest-202": {202, "", `{"accepted":1,"queued":1}
`},
	"ingest-422": {422, "", `{"error":"biorank: ingest \"bad\": graph: delta op 0 (set-node-p): graph: delta references unknown node EntrezProtein/missing","result":{"deltas":1,"nodesAdded":0,"edgesAdded":0,"probChanges":1,"probOnly":true,"version":12169,"affectedSources":["ABCC8"],"invalidated":0,"epochs":{"curation":1}}}
`},
	"ingest-async": {202, "", `{"accepted":1,"queued":1}
`},
	"ingest-partial": {422, "", `{"error":"biorank: ingest \"bad\": graph: delta op 0 (set-node-p): graph: delta references unknown node EntrezProtein/missing","result":{"deltas":1,"nodesAdded":0,"edgesAdded":0,"probChanges":0,"probOnly":true,"version":12169,"invalidated":0,"epochs":{"curation":2}}}
`},
	"ingest-sync": {200, "", `{"deltas":1,"nodesAdded":0,"edgesAdded":0,"probChanges":1,"probOnly":true,"version":12169,"affectedSources":["ABCC8"],"invalidated":5,"epochs":{"curation":1}}
`},
	"ingest-unknown-op": {422, "", `{"error":"biorank: unknown ingest op \"frobnicate\" (want upsert-node, upsert-edge, set-node-p or set-edge-q)","result":{"deltas":0,"nodesAdded":0,"edgesAdded":0,"probChanges":0,"probOnly":true,"version":0,"invalidated":0,"epochs":{"curation":2}}}
`},
	"query-429": {429, "1", `{"error":"overloaded","results":[{"protein":"ABCC8","error":"engine: overloaded, retry after 100ms","retryAfterMs":100},{"protein":"ABCC8","error":"engine: overloaded, retry after 100ms","retryAfterMs":100}]}
`},
	"query-bad-json": {400, "", `{"error":"bad JSON: unexpected EOF"}
`},
	"query-bad-param": {400, "", `{"error":"bad trials: strconv.Atoi: parsing \"z\": invalid syntax"}
`},
	"query-bad-type-methods": {400, "", `{"error":"bad JSON: methods: want string, got number"}
`},
	"query-bad-type-requests": {400, "", `{"error":"bad JSON: requests: want array, got object"}
`},
	"query-bad-type-trials": {400, "", `{"error":"bad JSON: trials: want integer, got string"}
`},
	"query-batch": {200, "", `sha256:485e39e0c2f69bffee89fd8e2e00ce7586206dca0c468950c5a240332bfb4772`},
	"query-get":   {200, "", `sha256:9964f00640e2f2798099548b4d19f6cf0c53af84d7ffdbd0fe62229ed3cbf08e`},
	"query-put": {405, "", `{"error":"method PUT not allowed"}
`},
	"rank": {200, "", `sha256:5b6e89ed3effd17e1ad796f2b8db84809d51c6728948a7bf2125cf081f8e6810`},
	"rank-bad-graph": {400, "", `{"error":"bad graph: want object, got number"}
`},
	"rank-bad-type-seed": {400, "", `{"error":"bad JSON: seed: want non-negative integer, got number -1"}
`},
	"rank-no-graph": {400, "", `{"error":"graph is required"}
`},
	"rank-null-graph": {400, "", `{"error":"bad graph: graph: query graph needs a graph, got null"}
`},
	"stats":      {200, "", `sha256:3fb2b6c35ecf6816176b376168d2203b7680cf82276dd66e3b0f33456098e530`},
	"stats-live": {200, "", `{"Nodes":5088,"Edges":7080,"Version":12169,"Deltas":1,"ProbOnlyDeltas":1,"NodesAdded":0,"EdgesAdded":0,"ProbChanges":1,"Epochs":{"curation":1}}`},
	"topk-bad-order": {400, "", `{"error":"order must be \"score\" or \"lower\", got \"banana\""}
`},
	"topk-bad-type-k": {400, "", `{"error":"bad JSON: k: want integer, got string"}
`},
	"topk-get":   {200, "", `sha256:2970d61841b0159213e69151136fcc8a1ac489fca59e68b6b4e53c5a1ed41ca1`},
	"topk-lower": {200, "", `sha256:27ce6b91050ad475648c2e90a8e6b05c871bc99aa2340f2cafb2e94e74fdd371`},
}

// statusBody is one pinned response.
type statusBody struct {
	code       int
	retryAfter string
	body       string
}

// pinned is the form a body is pinned in: the body itself, or the
// SHA-256 digest of one longer than 512 bytes.
func pinned(body string) string {
	if len(body) <= 512 {
		return body
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(body)))
}

// uptimeValue matches /stats' one wall-clock field.
var uptimeValue = regexp.MustCompile(`"uptime":"[^"]*"`)

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
		got[name] = statusBody{w.Code, w.Header().Get("Retry-After"), pinned(w.Body.String())}
	}
	serve := func(h http.HandlerFunc, ctx context.Context, method, target, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h(w, httptest.NewRequest(method, target, strings.NewReader(body)).WithContext(ctx))
		return w
	}
	post := func(h http.HandlerFunc, target, body string) *httptest.ResponseRecorder {
		return serve(h, context.Background(), http.MethodPost, target, body)
	}
	get := func(h http.HandlerFunc, target string) *httptest.ResponseRecorder {
		return serve(h, context.Background(), http.MethodGet, target, "")
	}

	setP := `{"op":"set-node-p","node":{"kind":"EntrezProtein","label":"` + acc + `"},"p":0.5}`
	badDelta := `{"source":"bad","ops":[{"op":"set-node-p","node":{"kind":"EntrezProtein","label":"missing"},"p":0.5}]}`
	record("ingest-202", post(s.handleIngest, "/ingest", `{"async":true,"source":"curation","ops":[`+setP+`]}`))
	record("ingest-422", post(s.handleIngest, "/ingest", `{"deltas":[{"source":"curation","ops":[`+setP+`]},`+badDelta+`]}`))

	// Occupy the engine's one admission slot with a long request, then
	// send a batch that is shed in its entirety.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(s.handleQuery, ctx, http.MethodPost, "/query", `{"protein":"`+protein+`","methods":["reliability"],"trials":100000000}`)
	}()
	for deadline := time.Now().Add(10 * time.Second); sys.EngineStats().InFlight == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("long request never started")
		}
	}
	record("query-429", post(s.handleQuery, "/query", `{"requests":[{"protein":"`+protein+`"},{"protein":"`+protein+`"}]}`))
	cancel()
	<-done

	w := get(s.handleStats, "/stats")
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	got["stats-live"] = statusBody{w.Code, "", string(stats["live"])}

	// Every endpoint, on a second live world whose engine admits a whole
	// batch and whose gate guards /rank and /topk.
	wsys, err := biorank.NewDemoSystem(3)
	if err != nil {
		t.Fatal(err)
	}
	defer wsys.Close()
	if err := wsys.EnableLive(); err != nil {
		t.Fatal(err)
	}
	if err := wsys.ConfigureEngine(biorank.EngineConfig{MaxInFlight: 2, MaxQueue: 2}); err != nil {
		t.Fatal(err)
	}
	ws := newServer(wsys, "demo", 0, 2, 2)
	ws.ingest = &ingester{sys: wsys, queue: make(chan []biorank.IngestDelta, 4)}
	ws.ready.Store(true)
	galt, err := wsys.Query("GALT")
	if err != nil {
		t.Fatal(err)
	}
	galtJSON, err := galt.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}

	record("query-get", get(ws.handleQuery, "/query?protein=ABCC8&seed=7"))
	record("query-batch", post(ws.handleQuery, "/query",
		`{"requests":[{"protein":"CFTR","methods":["reliability","inedge"],"planner":true,"trials":2000,"seed":3},{"protein":"NOSUCH"}]}`))
	record("query-bad-json", post(ws.handleQuery, "/query", `{`))
	record("query-bad-param", get(ws.handleQuery, "/query?protein=ABCC8&trials=z"))
	record("query-bad-type-trials", post(ws.handleQuery, "/query", `{"trials":"x"}`))
	record("query-bad-type-methods", post(ws.handleQuery, "/query", `{"methods":[1]}`))
	record("query-bad-type-requests", post(ws.handleQuery, "/query", `{"requests":{}}`))
	record("query-put", serve(ws.handleQuery, context.Background(), http.MethodPut, "/query", ""))
	record("rank", post(ws.handleRank, "/rank",
		`{"graph":`+string(galtJSON)+`,"methods":["pathcount","reliability"],"planner":true,"trials":2000,"seed":5}`))
	record("rank-no-graph", post(ws.handleRank, "/rank", `{}`))
	record("rank-bad-type-seed", post(ws.handleRank, "/rank", `{"seed":-1}`))
	record("rank-bad-graph", post(ws.handleRank, "/rank", `{"graph":1}`))
	record("rank-null-graph", post(ws.handleRank, "/rank", `{"graph":{"graph":null,"source":0,"answers":[]}}`))
	record("topk-get", get(ws.handleTopK, "/topk?protein=ABCC8&k=5&planner=true&trials=2000&seed=1"))
	record("topk-lower", post(ws.handleTopK, "/topk", `{"protein":"CFTR","k":3,"order":"lower","trials":2000,"seed":2}`))
	record("topk-bad-order", get(ws.handleTopK, "/topk?protein=ABCC8&order=banana"))
	record("topk-bad-type-k", post(ws.handleTopK, "/topk", `{"k":"x"}`))
	record("ingest-sync", post(ws.handleIngest, "/ingest", `{"source":"curation","ops":[`+setP+`]}`))
	record("ingest-async", post(ws.handleIngest, "/ingest", `{"async":true,"deltas":[{"source":"curation","ops":[`+setP+`]}]}`))
	record("ingest-partial", post(ws.handleIngest, "/ingest", `{"deltas":[{"source":"curation","ops":[`+setP+`]},`+badDelta+`]}`))
	record("ingest-unknown-op", post(ws.handleIngest, "/ingest", `{"source":"curation","ops":[{"op":"frobnicate"}]}`))
	w = get(ws.handleStats, "/stats")
	got["stats"] = statusBody{w.Code, w.Header().Get("Retry-After"),
		pinned(uptimeValue.ReplaceAllString(w.Body.String(), `"uptime":""`))}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if os.Getenv("BIORANK_GOLDEN_PRINT") != "" {
		for _, name := range names {
			fmt.Printf("\t%q: {%d, %q, `%s`},\n", name, got[name].code, got[name].retryAfter, got[name].body)
		}
	}
	for _, name := range names {
		if want, ok := statusBodies[name]; !ok {
			t.Errorf("%s: no pinned body", name)
		} else if got[name] != want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got[name], want)
		}
	}
	if len(got) != len(statusBodies) {
		t.Errorf("recorded %d bodies, %d pinned", len(got), len(statusBodies))
	}
}

// BenchmarkHandleQueryCached times biorankd's response path: a cached
// default GET /query for the first demo protein on the live demo world.
// The engine serves all five rankings from its result cache, so the
// handler's own decoding, conversion and encoding are what it measures;
// the body is dropped, as a server streams it to its connection.
func BenchmarkHandleQueryCached(b *testing.B) {
	sys, err := biorank.NewDemoSystem(1)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if err := sys.EnableLive(); err != nil {
		b.Fatal(err)
	}
	s := &server{sys: sys, world: "demo"}
	target := "/query?protein=" + sys.Proteins()[0]
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		w.Body = nil
		s.handleQuery(w, httptest.NewRequest(http.MethodGet, target, nil))
		return w
	}
	if w := serve(); w.Code != http.StatusOK {
		b.Fatalf("status %d", w.Code)
	}
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}
