package graph

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestGraphJSONRoundTrip(t *testing.T) {
	g, ids := chain(t)
	g.AddEdge(ids[0], ids[2], "extra", 0.25)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch after round trip: %d/%d vs %d/%d",
			back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i := 0; i < g.NumNodes(); i++ {
		a, b := g.Node(NodeID(i)), back.Node(NodeID(i))
		if a.Kind != b.Kind || a.Label != b.Label || a.P != b.P {
			t.Fatalf("node %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		a, b := g.Edge(EdgeID(i)), back.Edge(EdgeID(i))
		if a.From != b.From || a.To != b.To || a.Q != b.Q || a.Kind != b.Kind {
			t.Fatalf("edge %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestQueryGraphJSONRoundTrip(t *testing.T) {
	g, ids := chain(t)
	qg, err := NewQueryGraph(g, ids[0], []NodeID{ids[3]})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(qg)
	if err != nil {
		t.Fatal(err)
	}
	var back QueryGraph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Source != qg.Source || len(back.Answers) != 1 || back.Answers[0] != qg.Answers[0] {
		t.Fatalf("query structure lost: %+v", &back)
	}
	if back.NumNodes() != qg.NumNodes() {
		t.Fatal("graph lost")
	}
}

func TestGraphJSONRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{"nodes":[{"kind":"X","label":"a","p":1.5}],"edges":[]}`,                         // bad p
		`{"nodes":[{"kind":"X","label":"a","p":1}],"edges":[{"from":0,"to":5,"q":0.5}]}`,  // bad endpoint
		`{"nodes":[{"kind":"X","label":"a","p":1}],"edges":[{"from":0,"to":0,"q":7}]}`,    // bad q
		`{"nodes":[{"kind":"X","label":"a","p":1}],"edges":[{"from":-1,"to":0,"q":0.5}]}`, // negative endpoint
		`not json`, // garbage
	}
	for _, c := range cases {
		var g Graph
		if err := json.Unmarshal([]byte(c), &g); err == nil {
			t.Errorf("corrupt input accepted: %s", c)
		}
	}
}

func TestQueryGraphJSONRejectsBadQuery(t *testing.T) {
	bad := `{"graph":{"nodes":[{"kind":"X","label":"a","p":1}],"edges":[]},"source":9,"answers":[]}`
	var qg QueryGraph
	if err := json.Unmarshal([]byte(bad), &qg); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// TestQueryGraphJSONRejectsNullGraph is the regression test for a
// panic: a null "graph" left the decoded *Graph nil, and validating the
// source dereferenced it. biorankd's /rank decodes client bodies with
// this codec.
func TestQueryGraphJSONRejectsNullGraph(t *testing.T) {
	var qg QueryGraph
	err := qg.UnmarshalJSON([]byte(`{"graph":null,"source":0,"answers":[]}`))
	if err == nil || !strings.Contains(err.Error(), "null") {
		t.Fatalf("null graph: err %v, want an error naming the null", err)
	}
	if qg.Graph != nil {
		t.Fatal("a rejected decode changed the receiver")
	}
}

// FuzzQueryGraphUnmarshal feeds the query-graph codec arbitrary bytes,
// as /rank does with a client's body. Decoding must never panic; a
// graph it accepts must survive a Marshal/Unmarshal round trip with
// its Fingerprint unchanged; and decoding into a used QueryGraph must
// forget the values derived from the old graph, even though the new
// graph reaches the same Version. The seed corpus is under
// testdata/fuzz/FuzzQueryGraphUnmarshal.
func FuzzQueryGraphUnmarshal(f *testing.F) {
	type probe struct{}
	f.Fuzz(func(t *testing.T, data []byte) {
		var qg QueryGraph
		if err := qg.UnmarshalJSON(data); err != nil {
			return
		}
		enc, err := json.Marshal(&qg)
		if err != nil {
			t.Fatalf("marshal of a decoded graph: %v", err)
		}
		var back QueryGraph
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		if back.Fingerprint() != qg.Fingerprint() {
			t.Fatalf("round trip changed the fingerprint: %x -> %x (%s)", qg.Fingerprint(), back.Fingerprint(), enc)
		}

		builds := 0
		count := func(*QueryGraph) int { builds++; return builds }
		Derive(&qg, probe{}, count)
		version := qg.Version()
		if err := qg.UnmarshalJSON(enc); err != nil {
			t.Fatalf("decoding %s into a used graph: %v", enc, err)
		}
		if qg.Version() != version {
			t.Fatalf("re-decoding moved the Version from %d to %d", version, qg.Version())
		}
		if got := Derive(&qg, probe{}, count); got != 2 {
			t.Fatal("a value derived before UnmarshalJSON survived it")
		}
		if qg.Fingerprint() != back.Fingerprint() {
			t.Fatalf("fingerprint after decoding into a used graph: %x, want %x", qg.Fingerprint(), back.Fingerprint())
		}
	})
}

func TestGraphJSONStableFields(t *testing.T) {
	g := New(1, 0)
	g.AddNode("K", "l", 0.5)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"K"`, `"label":"l"`, `"p":0.5`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("wire format missing %s: %s", want, data)
		}
	}
}
