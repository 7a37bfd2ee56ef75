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
