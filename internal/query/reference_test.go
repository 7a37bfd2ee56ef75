package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"biorank/internal/graph"
)

// CloningRun is Run as it was before it stopped cloning its input: copy
// the whole entity graph, append the query node and its match edges,
// then prune. It is kept verbatim, except that it prunes with
// pruneByScan, as the reference Run's output must match byte for byte
// (SameQueryGraph). Exported, in a test file, so the world-scale
// comparisons of the external test package can call it.
func (q Exploratory) CloningRun(g *graph.Graph) (*graph.QueryGraph, error) {
	if q.InputKind == "" {
		return nil, fmt.Errorf("query: input entity set required")
	}
	if len(q.OutputKinds) == 0 {
		return nil, fmt.Errorf("query: at least one output entity set required")
	}
	out := make(map[string]bool, len(q.OutputKinds))
	for _, k := range q.OutputKinds {
		if k == QueryKind {
			return nil, fmt.Errorf("query: %q cannot be an output entity set", QueryKind)
		}
		out[k] = true
	}

	// Copy the entity graph and add the query node.
	work := g.Clone()
	src := work.AddNode(QueryKind, q.Keyword, 1)
	matched := 0
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		if n.Kind != q.InputKind {
			continue
		}
		if q.Match == nil || q.Match(n) {
			// The keyword match itself is certain: q = 1.
			work.AddEdge(src, n.ID, "match", 1)
			matched++
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("query: no %s record matches %q", q.InputKind, q.Keyword)
	}

	// Answer set: reachable records of the output sets.
	reach := work.Reachable(src)
	var answers []graph.NodeID
	for i := 0; i < work.NumNodes(); i++ {
		id := graph.NodeID(i)
		if reach[id] && out[work.Node(id).Kind] && id != src {
			answers = append(answers, id)
		}
	}
	qg, err := graph.NewQueryGraph(work, src, answers)
	if err != nil {
		return nil, err
	}
	return pruneByScan(qg), nil
}

// pruneByScan is QueryGraph.Prune as it was before InducedSubgraph
// visited only the kept part: it keeps the nodes on a source-to-answer
// path, then copies every kept node and every kept edge in one scan of
// each, in ID order. It shares no pruning code with Run.
func pruneByScan(qg *graph.QueryGraph) *graph.QueryGraph {
	fromS := qg.Reachable(qg.Source)
	toA := qg.CoReachable(qg.Answers, nil)
	keep := make([]bool, qg.NumNodes())
	for i := range keep {
		keep[i] = fromS[i] && toA[i]
	}
	keep[qg.Source] = true
	remap := make([]graph.NodeID, qg.NumNodes())
	sub := graph.New(qg.NumNodes(), qg.NumEdges())
	for i, k := range keep {
		remap[i] = -1
		if k {
			n := qg.Node(graph.NodeID(i))
			remap[i] = sub.AddNode(n.Kind, n.Label, n.P)
		}
	}
	for i := 0; i < qg.NumEdges(); i++ {
		if e := qg.Edge(graph.EdgeID(i)); keep[e.From] && keep[e.To] {
			sub.AddEdge(remap[e.From], remap[e.To], e.Kind, e.Q)
		}
	}
	answers := make([]graph.NodeID, 0, len(qg.Answers))
	for _, a := range qg.Answers {
		if remap[a] >= 0 {
			answers = append(answers, remap[a])
		}
	}
	out, err := graph.NewQueryGraph(sub, remap[qg.Source], answers)
	if err != nil {
		panic(err)
	}
	return out
}

// SameQueryGraph reports how got differs from want, the CloningRun
// result for the same query: in its graph-codec JSON (nodes, edges, source
// and answers, in order) or in its Version(). It returns "" when they
// are byte-identical.
func SameQueryGraph(got, want *graph.QueryGraph) string {
	gb, err := json.Marshal(got)
	if err != nil {
		return err.Error()
	}
	wb, err := json.Marshal(want)
	if err != nil {
		return err.Error()
	}
	if !bytes.Equal(gb, wb) {
		return fmt.Sprintf("codec JSON differs:\n got %s\nwant %s", gb, wb)
	}
	if got.Version() != want.Version() {
		return fmt.Sprintf("Version() %d, want %d", got.Version(), want.Version())
	}
	return ""
}

// cycleGraph is entityGraph plus a cycle back into a matched record
// (g1 -> p1) and an unmatched record that reaches the cycle (P/p3 ->
// G/g1), so the walks meet nodes they have already marked.
func cycleGraph() *graph.Graph {
	g := entityGraph()
	p1, _ := g.Lookup("P", "p1")
	g1, _ := g.Lookup("G", "g1")
	p3 := g.AddNode("P", "p3", 0.6)
	g.AddEdge(g1, p1, "back", 0.4)
	g.AddEdge(p3, g1, "r", 0.5)
	return g
}

// TestRunMatchesCloningRun compares Run with the cloning reference on
// the small graphs: unmatched records, an island, several output kinds
// (including the input kind itself) and a cycle back into a matched
// record.
func TestRunMatchesCloningRun(t *testing.T) {
	label := func(l string) func(graph.Node) bool {
		return func(n graph.Node) bool { return n.Label == l }
	}
	queries := []Exploratory{
		{InputKind: "P", Match: label("p1"), OutputKinds: []string{"F"}, Keyword: "p1"},
		{InputKind: "P", Match: label("p2"), OutputKinds: []string{"F"}, Keyword: "p2"},
		{InputKind: "P", OutputKinds: []string{"F"}, Keyword: "*"},
		{InputKind: "P", OutputKinds: []string{"F", "G"}, Keyword: "*"},
		{InputKind: "P", Match: label("p1"), OutputKinds: []string{"P", "F"}, Keyword: "p1"},
		{InputKind: "G", OutputKinds: []string{"F"}, Keyword: "genes"},
		{InputKind: "P", Match: label("p1"), OutputKinds: []string{"X"}, Keyword: "none reachable"},
		{InputKind: "X", OutputKinds: []string{"F"}, Keyword: "island"},
	}
	for gi, g := range []*graph.Graph{entityGraph(), cycleGraph()} {
		before, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		version := g.Version()
		for _, q := range queries {
			got, err := q.Run(g)
			if err != nil {
				t.Fatalf("graph %d, %s: %v", gi, q.Keyword, err)
			}
			want, err := q.CloningRun(g)
			if err != nil {
				t.Fatalf("graph %d, %s: reference: %v", gi, q.Keyword, err)
			}
			if diff := SameQueryGraph(got, want); diff != "" {
				t.Errorf("graph %d, %s: %s", gi, q.Keyword, diff)
			}
		}
		after, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) || g.Version() != version {
			t.Errorf("graph %d: Run modified its input", gi)
		}
	}
}
