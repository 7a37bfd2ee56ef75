package graph

import (
	"encoding/json"
	"fmt"
)

// This file provides a stable JSON encoding for probabilistic entity
// graphs and query graphs, so integrated datasets and query results can
// be persisted, diffed, and reloaded without re-running the mediator.

// jsonGraph is the wire format of a Graph.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	Kind  string  `json:"kind"`
	Label string  `json:"label"`
	P     float64 `json:"p"`
}

type jsonEdge struct {
	From int32   `json:"from"`
	To   int32   `json:"to"`
	Kind string  `json:"kind,omitempty"`
	Q    float64 `json:"q"`
}

// MarshalJSON implements json.Marshaler. Node IDs are positional.
func (g *Graph) MarshalJSON() ([]byte, error) {
	out := jsonGraph{
		Nodes: make([]jsonNode, len(g.nodes)),
		Edges: make([]jsonEdge, len(g.edges)),
	}
	for i, n := range g.nodes {
		out.Nodes[i] = jsonNode{Kind: n.Kind, Label: n.Label, P: n.P}
	}
	for i, e := range g.edges {
		out.Edges[i] = jsonEdge{From: int32(e.From), To: int32(e.To), Kind: e.Kind, Q: e.Q}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, replacing the receiver's
// contents.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var in jsonGraph
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	fresh := New(len(in.Nodes), len(in.Edges))
	for _, n := range in.Nodes {
		if n.P < 0 || n.P > 1 {
			return fmt.Errorf("graph: node %s/%s probability %g outside [0,1]", n.Kind, n.Label, n.P)
		}
		fresh.AddNode(n.Kind, n.Label, n.P)
	}
	for i, e := range in.Edges {
		if e.Q < 0 || e.Q > 1 {
			return fmt.Errorf("graph: edge %d probability %g outside [0,1]", i, e.Q)
		}
		if int(e.From) >= len(in.Nodes) || int(e.To) >= len(in.Nodes) || e.From < 0 || e.To < 0 {
			return fmt.Errorf("graph: edge %d endpoint out of range", i)
		}
		fresh.AddEdge(NodeID(e.From), NodeID(e.To), e.Kind, e.Q)
	}
	// Move the rebuilt state field by field rather than copying the
	// struct: the receiver's label-index lock must not be overwritten
	// (and a deserialized graph is not yet shared, so no lock is held).
	g.nodes, g.edges, g.out, g.in = fresh.nodes, fresh.edges, fresh.out, fresh.in
	g.version = fresh.version
	g.labelMu.Lock()
	g.byLabel = nil
	g.labelMu.Unlock()
	return nil
}

// jsonQueryGraph is the wire format of a QueryGraph.
type jsonQueryGraph struct {
	Graph   *Graph  `json:"graph"`
	Source  int32   `json:"source"`
	Answers []int32 `json:"answers"`
}

// MarshalJSON implements json.Marshaler.
func (qg *QueryGraph) MarshalJSON() ([]byte, error) {
	answers := make([]int32, len(qg.Answers))
	for i, a := range qg.Answers {
		answers[i] = int32(a)
	}
	return json.Marshal(jsonQueryGraph{
		Graph:   qg.Graph,
		Source:  int32(qg.Source),
		Answers: answers,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (qg *QueryGraph) UnmarshalJSON(data []byte) error {
	var in jsonQueryGraph
	in.Graph = New(0, 0)
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Graph == nil {
		return fmt.Errorf("graph: query graph needs a graph, got null")
	}
	answers := make([]NodeID, len(in.Answers))
	for i, a := range in.Answers {
		answers[i] = NodeID(a)
	}
	fresh, err := NewQueryGraph(in.Graph, NodeID(in.Source), answers)
	if err != nil {
		return err
	}
	// Field by field, not *qg = *fresh: Derive's values are not copied
	// but forgotten, since the new graph's version may equal the old.
	qg.Graph, qg.Source, qg.Answers = fresh.Graph, fresh.Source, fresh.Answers
	qg.derived.Store(nil)
	return nil
}
