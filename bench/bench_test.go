package main

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestStreamsDependOnSeedOnly(t *testing.T) {
	bodies := func(w *workload, seed uint64) [][]byte {
		streams, err := w.streams(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, s := range streams {
			for range 200 {
				out = append(out, s.take().body)
			}
		}
		return out
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, other := bodies(w, 1), bodies(w, 1), bodies(w, 2)
			if !slices.EqualFunc(a, b, bytes.Equal) {
				t.Error("seed 1 generated two different streams")
			}
			if slices.EqualFunc(a, other, bytes.Equal) {
				t.Error("seeds 1 and 2 generated the same stream")
			}
		})
	}
}

func TestStreamMixes(t *testing.T) {
	count := func(w *workload, n int) map[string]int {
		streams, err := w.streams(7)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, s := range streams {
			for range n {
				o := s.take()
				key := o.req.path
				switch {
				case o.req.path == "/ingest":
					key = o.req.delta.Ops[0].Op
				case o.req.opts.Worlds:
					key += " worlds"
				case o.req.opts.Adaptive:
					key += " adaptive"
				case len(o.req.methods) == 0:
					key += " default"
				}
				got[key]++
			}
		}
		return got
	}
	if got, want := count(workloadByNameT(t, "live_rank"), 100), map[string]int{
		"/query default": 50, "/query worlds": 20, "/query adaptive": 10, "/topk worlds": 20,
	}; !maps.Equal(got, want) {
		t.Errorf("live_rank mix %v, want %v", got, want)
	}
	// Connection A reads 100; connection B writes 40 of 100, 7:3 node:edge
	// over every ten writes.
	got := count(workloadByNameT(t, "live_churn"), 100)
	if got["/query"] != 160 || got["set-node-p"] != 28 || got["set-edge-q"] != 12 {
		t.Errorf("live_churn mix %v, want 160 reads, 28 set-node-p, 12 set-edge-q", got)
	}
}

func workloadByNameT(t *testing.T, name string) *workload {
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// loadgenPercentile is examples/loadgen's percentile, verbatim but for
// the element type: the definition the benchmark must agree with.
func loadgenPercentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func TestPercentileMatchesLoadgen(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 10, 99, 100, 101, 1000, 1377} {
		ds := make([]time.Duration, n)
		xs := make([]float64, n)
		for i := range ds {
			ds[i] = time.Duration(i*i + 1)
			xs[i] = float64(ds[i])
		}
		for _, p := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			if got, want := percentile(xs, p), float64(loadgenPercentile(ds, p)); got != want {
				t.Errorf("n=%d p=%v: percentile %v, loadgen %v", n, p, got, want)
			}
		}
	}
}

func TestStatsDelta(t *testing.T) {
	read := func(name string) serverStats {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		st, err := parseStats(b)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	got := read("stats_after.json").since(read("stats_before.json"))
	// Recorded from a durable biorankd (-checkpoint-every 8): two reads,
	// ten set-node-p ingests on CFTR's record, five more reads.
	want := statsDelta{hits: 3, misses: 2, invalidations: 1, planMisses: 2, planPatches: 1,
		checkpoints: 1}
	if got != want {
		t.Errorf("delta %+v, want %+v", got, want)
	}
	if _, err := parseStats([]byte("not json")); err == nil {
		t.Error("parseStats accepted garbage")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, c := range []struct {
		kind     string
		emitted  []metricDef
		declared []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.emitted) != len(c.declared) {
			t.Errorf("%s: %d metrics emitted, %d declared", c.kind, len(c.emitted), len(c.declared))
			continue
		}
		for i, m := range c.emitted {
			if d := c.declared[i]; m.name != d.Name || m.unit != d.Unit {
				t.Errorf("%s[%d]: emitted %s %s, declared %s %s", c.kind, i, m.name, m.unit, d.Name, d.Unit)
			}
			if !valid.MatchString(m.name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.name)
			}
		}
	}
	// The values every run computes must cover exactly the declared names.
	e2e := endToEndMetrics(nil, time.Now(), time.Second, []float64{1}, 1)
	layer := httpLayerMetrics(nil, statsDelta{})
	for k, v := range replayLayerMetrics(&replayRun{base: &replayBase{}}, 0) {
		layer[k] = v
	}
	for _, c := range []struct {
		defs   []metricDef
		values map[string]float64
	}{{endToEnd, e2e}, {perLayer, layer}} {
		if len(c.values) != len(c.defs) {
			t.Errorf("%d values computed for %d declared metrics", len(c.values), len(c.defs))
		}
		for _, d := range c.defs {
			if _, ok := c.values[d.name]; !ok {
				t.Errorf("metric %s is declared but never computed", d.name)
			}
		}
	}
}

// replayObservations replays the first n requests of each stream in
// process and renders each response in its HTTP form.
func replayObservations(t *testing.T, w *workload, n int) []observation {
	t.Helper()
	queues, err := replayQueues(w, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	base, err := newReplayBase(w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := base.pass(context.Background(), queues, true, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var obs []observation
	for _, r := range res.reqs {
		if r.err != nil {
			t.Fatalf("replay %s #%d: %v", r.op.req.path, r.op.index, r.err)
		}
		var v any
		switch {
		case r.resp.query != nil:
			v = queryResponse{Results: []queryResult{*r.resp.query}}
		case r.resp.topk != nil:
			v = r.resp.topk
		default:
			v = r.resp.ingest
		}
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, observation{op: r.op, status: 200, body: body, window: true})
	}
	sortObservations(obs)
	return obs
}

// TestReplayPassesOracle replays 20 requests per stream in process and
// verifies every response bit for bit, so a broken harness fails here
// without the HTTP phase.
func TestReplayPassesOracle(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			obs := replayObservations(t, w, 20)
			v, err := check(w, obs, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			if v.attempted != len(obs) || v.failed != 0 {
				t.Fatalf("%d of %d responses failed: %v", v.failed, v.attempted, v.notes)
			}
		})
	}
}

// TestCorruptKeptResponseFails changes one digit of one score in a kept
// response: the oracle must catch it and the run must report itself
// incorrect, which makes the command exit 1.
func TestCorruptKeptResponseFails(t *testing.T) {
	w := workloadByNameT(t, "cold_query")
	obs := replayObservations(t, w, keepEvery+1)
	for i := range obs {
		if obs[i].op.index != keepEvery {
			continue
		}
		var resp queryResponse
		if err := json.Unmarshal(obs[i].body, &resp); err != nil {
			t.Fatal(err)
		}
		for _, ranking := range resp.Results[0].Rankings {
			ranking[0].Score = ranking[0].Score*0.5 + 0.5 // still in [0,1], still first
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		obs[i].body = b
	}
	v, err := check(w, obs, nil, keepEvery)
	if err != nil {
		t.Fatal(err)
	}
	if v.failed != 1 || !strings.Contains(strings.Join(v.notes, "\n"), "oracle") {
		t.Fatalf("corrupted response not caught: %d failed, notes %v", v.failed, v.notes)
	}
	if s := summarize([]*runResult{{workload: w.name, verdict: v}}, false); s.Correct {
		t.Error("a run with a wrong response reports correct")
	}
}

func TestCheckShapeRejects(t *testing.T) {
	read := request{path: "/query", methods: []string{"reliability"}}
	topk := request{path: "/topk", k: 2}
	for _, c := range []struct {
		name   string
		req    request
		status int
		body   string
	}{
		{"status", read, 500, `{}`},
		{"result error", read, 200, `{"results":[{"error":"boom"}]}`},
		{"truncated", read, 200, `{"results":[{"answers":1,"truncated":true,"rankings":{"reliability":[{"score":1}]}}]}`},
		{"missing method", read, 200, `{"results":[{"answers":1,"rankings":{"inedge":[{"score":1}]}}]}`},
		{"unsorted", read, 200, `{"results":[{"answers":2,"rankings":{"reliability":[{"score":0.1},{"score":0.2}]}}]}`},
		{"outside bounds", read, 200, `{"results":[{"answers":1,"rankings":{"reliability":[{"score":0.5,"lo":0.6,"hi":0.9}]}}]}`},
		{"short top-k", topk, 200, `{"candidates":5,"answers":[{"score":0.5,"lo":0.4,"hi":0.6}]}`},
		{"top-k bounds", topk, 200, `{"candidates":2,"answers":[{"score":0.5,"lo":0.4,"hi":0.6},{"score":0.3,"lo":0.35,"hi":0.6}]}`},
		{"ingest", request{path: "/ingest"}, 200, `{"deltas":0,"probOnly":true}`},
	} {
		o := observation{op: op{req: c.req}, status: c.status, body: []byte(c.body)}
		if _, err := checkShape(o); err == nil {
			t.Errorf("%s: accepted %s", c.name, c.body)
		}
	}
	ok := observation{op: op{req: read}, status: 200,
		body: []byte(`{"results":[{"answers":2,"rankings":{"reliability":[{"score":0.5,"lo":0.4,"hi":0.6},{"score":0.5}]}}]}`)}
	if _, err := checkShape(ok); err != nil {
		t.Errorf("rejected a valid response: %v", err)
	}
}
