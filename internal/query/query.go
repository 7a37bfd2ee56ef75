// Package query implements the exploratory queries of Definition 2.2:
// the user selects an input entity set P, an attribute predicate, and
// output entity sets P1..Pn; the system finds all records of P matching
// the predicate, follows all links recursively, and returns the reachable
// records of the output sets as a ranked answer set.
//
// A query executes against a materialized probabilistic entity graph
// (built by internal/mediator from the integrated sources) by adding a
// fresh query node s linked to every matching record and collecting the
// reachable output records as the answer set A, yielding the
// probabilistic query graph of Definition 2.3.
package query

import (
	"fmt"

	"biorank/internal/graph"
)

// QueryKind is the node kind of the synthetic query node added to the
// entity graph.
const QueryKind = "Query"

// Exploratory is an exploratory query (P.attr = "value", {P1..Pn}).
type Exploratory struct {
	// InputKind is the entity set P searched by keyword.
	InputKind string
	// Match is the attribute predicate on records of P (e.g. name
	// equality). A nil Match matches every record of P.
	Match func(n graph.Node) bool
	// OutputKinds are the output entity sets P1..Pn.
	OutputKinds []string
	// Keyword documents the query for display purposes.
	Keyword string
}

// Run executes the query against the entity graph g. The graph is not
// modified; the result is a pruned copy containing the query node, the
// matched input records, and everything on a path to a reachable answer.
// Only that copy is built, so a query graph carved out of a large union
// graph costs what it keeps. Its layout is fixed, because Monte Carlo
// streams and cache fingerprints depend on it: the kept records in ID
// order, then the query node; the kept edges in ID order, then the match
// edges; and a Version() that counts one per node and edge added.
func (q Exploratory) Run(g *graph.Graph) (*graph.QueryGraph, error) {
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

	var matched []graph.NodeID
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		if n.Kind == q.InputKind && (q.Match == nil || q.Match(n)) {
			matched = append(matched, n.ID)
		}
	}
	if len(matched) == 0 {
		return nil, fmt.Errorf("query: no %s record matches %q", q.InputKind, q.Keyword)
	}

	// Answer set: records of the output sets reachable from a match.
	reach := g.Reachable(matched...)
	var answers []graph.NodeID
	for i, r := range reach {
		if r && out[g.Node(graph.NodeID(i)).Kind] {
			answers = append(answers, graph.NodeID(i))
		}
	}

	// Keep the records on a path from a match to an answer, then add the
	// query node and its match edges to the kept records.
	sub, remap := g.InducedSubgraph(g.CoReachable(answers, reach), 1, len(matched))
	src := sub.AddNode(QueryKind, q.Keyword, 1)
	for _, m := range matched {
		if remap[m] >= 0 {
			// The keyword match itself is certain: q = 1.
			sub.AddEdge(src, remap[m], "match", 1)
		}
	}
	for i, a := range answers {
		answers[i] = remap[a]
	}
	return graph.NewQueryGraph(sub, src, answers)
}
