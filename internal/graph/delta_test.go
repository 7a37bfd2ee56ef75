package graph

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// deltaTestGraph builds a small integration-shaped graph:
//
//	P/p1 ──▶ G/g1 ──▶ F/f1
//	P/p2 ──▶ G/g2 ──▶ F/f1
func deltaTestGraph(t *testing.T) *Graph {
	t.Helper()
	g := New(8, 8)
	p1 := g.AddNode("P", "p1", 0.9)
	p2 := g.AddNode("P", "p2", 0.8)
	g1 := g.AddNode("G", "g1", 0.7)
	g2 := g.AddNode("G", "g2", 0.6)
	f1 := g.AddNode("F", "f1", 1.0)
	g.AddEdge(p1, g1, "link", 0.5)
	g.AddEdge(p2, g2, "link", 0.5)
	g.AddEdge(g1, f1, "ann", 0.4)
	g.AddEdge(g2, f1, "ann", 0.4)
	return g
}

// TestOpKindWireNames pins the ops' wire spellings and their parser.
func TestOpKindWireNames(t *testing.T) {
	for k, name := range map[OpKind]string{
		OpUpsertNode: "upsert-node", OpUpsertEdge: "upsert-edge",
		OpSetNodeP: "set-node-p", OpSetEdgeQ: "set-edge-q",
	} {
		if k.String() != name {
			t.Errorf("OpKind(%d).String() = %q, want %q", uint8(k), k.String(), name)
		}
		if got, ok := ParseOpKind(name); !ok || got != k {
			t.Errorf("ParseOpKind(%q) = %v, %v", name, got, ok)
		}
	}
	for _, name := range []string{"", "setNodeP", "OpKind(0)", "upsert_node"} {
		if k, ok := ParseOpKind(name); ok {
			t.Errorf("ParseOpKind(%q) = %v, want rejection", name, k)
		}
	}
	if got := OpKind(9).String(); got != "OpKind(9)" {
		t.Errorf("OpKind(9).String() = %q", got)
	}
}

func TestApplyDeltaProbOnly(t *testing.T) {
	g := deltaTestGraph(t)
	v0 := g.Version()
	res, err := g.ApplyDelta(Delta{Source: "amigo", Ops: []Op{
		{Kind: OpSetNodeP, Node: NodeRef{"G", "g1"}, P: 0.25},
		{Kind: OpSetEdgeQ, From: NodeRef{"G", "g1"}, To: NodeRef{"F", "f1"}, Rel: "ann", P: 0.9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ProbOnly {
		t.Errorf("ProbOnly = false, want true")
	}
	if res.ProbChanges != 2 || res.NodesAdded != 0 || res.EdgesAdded != 0 {
		t.Errorf("counts = %+v", res)
	}
	if res.Epoch != 1 || g.SourceEpoch("amigo") != 1 {
		t.Errorf("epoch = %d / %d, want 1", res.Epoch, g.SourceEpoch("amigo"))
	}
	if g.Version() != v0+2 {
		t.Errorf("version advanced by %d, want 2", g.Version()-v0)
	}
	g1, _ := g.Lookup("G", "g1")
	f1, _ := g.Lookup("F", "f1")
	if g.Node(g1).P != 0.25 {
		t.Errorf("g1.P = %g", g.Node(g1).P)
	}
	want := []NodeID{g1, f1}
	sortNodeIDs(want)
	if !reflect.DeepEqual(res.Affected, want) {
		t.Errorf("Affected = %v, want %v", res.Affected, want)
	}
}

func TestApplyDeltaUpsertSemantics(t *testing.T) {
	g := deltaTestGraph(t)
	// Upserting an existing node with a new P is a probability update;
	// with the same P it is a no-op; a fresh label is a node add.
	res, err := g.ApplyDelta(Delta{Source: "entrez", Ops: []Op{
		{Kind: OpUpsertNode, Node: NodeRef{"P", "p1"}, P: 0.95},
		{Kind: OpUpsertNode, Node: NodeRef{"P", "p2"}, P: 0.8},
		{Kind: OpUpsertNode, Node: NodeRef{"G", "g3"}, P: 0.5},
		{Kind: OpUpsertEdge, From: NodeRef{"P", "p1"}, To: NodeRef{"G", "g3"}, Rel: "link", P: 0.3},
		{Kind: OpUpsertEdge, From: NodeRef{"P", "p1"}, To: NodeRef{"G", "g1"}, Rel: "link", P: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesAdded != 1 || res.EdgesAdded != 1 || res.ProbChanges != 1 || res.NoOps != 2 {
		t.Errorf("counts = %+v", res)
	}
	if res.ProbOnly {
		t.Error("ProbOnly = true for topology delta")
	}
	if _, ok := g.Lookup("G", "g3"); !ok {
		t.Error("g3 not added")
	}
}

// TestApplyDeltaCollidingRefs is the regression test for refs whose
// "Kind/Label" concatenations coincide: an upsert of (a, b/c) must add
// a node rather than revise (a/b, c), and a set-node-p must change the
// record it names and no other.
func TestApplyDeltaCollidingRefs(t *testing.T) {
	g := New(4, 0)
	ab := g.AddNode("a/b", "c", 0.5)
	res, err := g.ApplyDelta(Delta{Source: "entrez", Ops: []Op{
		{Kind: OpUpsertNode, Node: NodeRef{"a", "b/c"}, P: 0.3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesAdded != 1 || res.ProbChanges != 0 {
		t.Fatalf("upsert of (a, b/c): counts = %+v, want one node added", res)
	}
	if g.NumNodes() != 2 || g.Node(ab).P != 0.5 {
		t.Fatalf("upsert of (a, b/c) revised (a/b, c): nodes=%d p=%g", g.NumNodes(), g.Node(ab).P)
	}
	a, ok := g.Lookup("a", "b/c")
	if !ok || g.Node(a).P != 0.3 {
		t.Fatalf("(a, b/c) = %d, %t after upsert", a, ok)
	}

	res, err = g.ApplyDelta(Delta{Source: "entrez", Ops: []Op{
		{Kind: OpSetNodeP, Node: NodeRef{"a/b", "c"}, P: 0.9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Node(ab).P != 0.9 || g.Node(a).P != 0.3 {
		t.Fatalf("set-node-p on (a/b, c): p(a/b, c)=%g p(a, b/c)=%g, want 0.9 and 0.3", g.Node(ab).P, g.Node(a).P)
	}
	if !reflect.DeepEqual(res.Affected, []NodeID{ab}) {
		t.Fatalf("Affected = %v, want [%d]", res.Affected, ab)
	}
}

func TestApplyDeltaAtomicOnError(t *testing.T) {
	g := deltaTestGraph(t)
	v0 := g.Version()
	n0 := g.NumNodes()
	_, err := g.ApplyDelta(Delta{Source: "entrez", Ops: []Op{
		{Kind: OpUpsertNode, Node: NodeRef{"G", "g9"}, P: 0.5},
		{Kind: OpSetNodeP, Node: NodeRef{"G", "missing"}, P: 0.5}, // invalid
	}})
	if err == nil {
		t.Fatal("want error for dangling reference")
	}
	if g.Version() != v0 || g.NumNodes() != n0 {
		t.Errorf("graph mutated despite error: version %d->%d nodes %d->%d", v0, g.Version(), n0, g.NumNodes())
	}
	if g.SourceEpoch("entrez") != 0 {
		t.Errorf("epoch bumped despite error")
	}
	// Out-of-range probability is rejected up front.
	if _, err := g.ApplyDelta(Delta{Source: "s", Ops: []Op{{Kind: OpUpsertNode, Node: NodeRef{"X", "x"}, P: 1.5}}}); err == nil {
		t.Error("want error for p > 1")
	}
	// Empty and unattributed deltas are rejected.
	if _, err := g.ApplyDelta(Delta{Source: "s"}); err != ErrEmptyDelta {
		t.Errorf("empty delta: err = %v", err)
	}
	if _, err := g.ApplyDelta(Delta{Ops: []Op{{Kind: OpUpsertNode, Node: NodeRef{"X", "x"}, P: 0.5}}}); err == nil {
		t.Error("want error for missing source")
	}
}

// TestApplyDeltaRejectsNaNProbability: a NaN probability fails both
// range comparisons, so it used to pass validation and land in the graph
// (which the codec then cannot encode). Found by FuzzStoreApply.
func TestApplyDeltaRejectsNaNProbability(t *testing.T) {
	g := deltaTestGraph(t)
	v0 := g.Version()
	for _, op := range []Op{
		{Kind: OpUpsertNode, Node: NodeRef{"X", "x"}, P: math.NaN()},
		{Kind: OpSetNodeP, Node: NodeRef{"G", "g1"}, P: math.NaN()},
		{Kind: OpSetEdgeQ, From: NodeRef{"G", "g1"}, To: NodeRef{"F", "f1"}, Rel: "ann", P: math.NaN()},
	} {
		if _, err := g.ApplyDelta(Delta{Source: "s", Ops: []Op{op}}); err == nil {
			t.Errorf("%s with NaN probability accepted", op.Kind)
		}
	}
	if g.Version() != v0 {
		t.Errorf("graph mutated by rejected deltas: version %d->%d", v0, g.Version())
	}
}

func TestApplyDeltaIntraBatchReference(t *testing.T) {
	g := deltaTestGraph(t)
	// An edge may target a node added earlier in the same delta, and a
	// SetNodeP may revise it; referencing it before the add fails.
	res, err := g.ApplyDelta(Delta{Source: "blast", Ops: []Op{
		{Kind: OpUpsertNode, Node: NodeRef{"G", "gN"}, P: 0.4},
		{Kind: OpUpsertEdge, From: NodeRef{"P", "p1"}, To: NodeRef{"G", "gN"}, Rel: "link", P: 0.2},
		{Kind: OpSetNodeP, Node: NodeRef{"G", "gN"}, P: 0.45},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesAdded != 1 || res.EdgesAdded != 1 || res.ProbChanges != 1 {
		t.Errorf("counts = %+v", res)
	}
	gN, _ := g.Lookup("G", "gN")
	if g.Node(gN).P != 0.45 {
		t.Errorf("gN.P = %g, want 0.45", g.Node(gN).P)
	}
	_, err = g.ApplyDelta(Delta{Source: "blast", Ops: []Op{
		{Kind: OpSetNodeP, Node: NodeRef{"G", "gLater"}, P: 0.4},
		{Kind: OpUpsertNode, Node: NodeRef{"G", "gLater"}, P: 0.4},
	}})
	if err == nil {
		t.Error("want error for reference before intra-batch add")
	}
}

func TestApplyDeltaNoOpKeepsVersion(t *testing.T) {
	g := deltaTestGraph(t)
	v0 := g.Version()
	res, err := g.ApplyDelta(Delta{Source: "entrez", Ops: []Op{
		{Kind: OpUpsertNode, Node: NodeRef{"P", "p1"}, P: 0.9}, // identical
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed() {
		t.Errorf("Changed() = true for no-op delta: %+v", res)
	}
	if g.Version() != v0 {
		t.Errorf("version bumped by no-op delta")
	}
	if res.Epoch != 1 {
		t.Errorf("epoch not bumped by no-op delta")
	}
	if len(res.Affected) != 0 {
		t.Errorf("Affected = %v for no-op delta", res.Affected)
	}
}

func TestCloneCopiesEpochs(t *testing.T) {
	g := deltaTestGraph(t)
	if _, err := g.ApplyDelta(Delta{Source: "entrez", Ops: []Op{
		{Kind: OpSetNodeP, Node: NodeRef{"P", "p1"}, P: 0.5},
	}}); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if c.SourceEpoch("entrez") != 1 {
		t.Errorf("clone epoch = %d, want 1", c.SourceEpoch("entrez"))
	}
	// Epoch maps are independent after clone.
	if _, err := c.ApplyDelta(Delta{Source: "entrez", Ops: []Op{
		{Kind: OpSetNodeP, Node: NodeRef{"P", "p1"}, P: 0.6},
	}}); err != nil {
		t.Fatal(err)
	}
	if g.SourceEpoch("entrez") != 1 || c.SourceEpoch("entrez") != 2 {
		t.Errorf("epochs not independent: g=%d c=%d", g.SourceEpoch("entrez"), c.SourceEpoch("entrez"))
	}
}

// TestStoreApplyViewAndLog checks that an applied delta is visible to
// View, counted by Stat and handed to the write-ahead hook first.
func TestStoreApplyViewAndLog(t *testing.T) {
	s := NewStore(deltaTestGraph(t))
	hook := &recordingHook{}
	s.SetDurability(hook)
	v0 := s.Version()
	d := Delta{Source: "amigo", Ops: []Op{
		{Kind: OpSetNodeP, Node: NodeRef{"G", "g1"}, P: 0.33},
	}}
	res, err := s.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != v0+1 {
		t.Errorf("res.Version = %d, want %d", res.Version, v0+1)
	}
	if want := []hookRecord{{seq: 1, prevVersion: v0, d: d}}; !reflect.DeepEqual(hook.recs, want) {
		t.Errorf("hook saw %+v, want %+v", hook.recs, want)
	}
	var p float64
	s.View(func(g *Graph) {
		id, _ := g.Lookup("G", "g1")
		p = g.Node(id).P
	})
	if p != 0.33 {
		t.Errorf("view sees p = %g", p)
	}
	st := s.Stat()
	if st.Deltas != 1 || st.ProbOnlyDeltas != 1 || st.ProbChanges != 1 || st.Epochs["amigo"] != 1 {
		t.Errorf("Stat() = %+v", st)
	}
}

func TestStoreSourcesReaching(t *testing.T) {
	s := NewStore(deltaTestGraph(t))
	res, err := s.Apply(Delta{Source: "amigo", Ops: []Op{
		{Kind: OpSetNodeP, Node: NodeRef{"G", "g1"}, P: 0.1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Only p1 reaches g1; a delta on g1 must not implicate p2.
	got := s.SourcesReaching("P", res.Affected)
	if !reflect.DeepEqual(got, []string{"p1"}) {
		t.Errorf("SourcesReaching = %v, want [p1]", got)
	}
	// f1 is reachable from both sources: a delta there implicates both.
	res, err = s.Apply(Delta{Source: "amigo", Ops: []Op{
		{Kind: OpSetNodeP, Node: NodeRef{"F", "f1"}, P: 0.9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	got = s.SourcesReaching("P", res.Affected)
	if !reflect.DeepEqual(got, []string{"p1", "p2"}) {
		t.Errorf("SourcesReaching = %v, want [p1 p2]", got)
	}
	if got := s.SourcesReaching("P", nil); got != nil {
		t.Errorf("SourcesReaching(nil) = %v", got)
	}
}

// TestStoreConcurrency exercises Apply racing View/Lookup under -race.
func TestStoreConcurrency(t *testing.T) {
	s := NewStore(deltaTestGraph(t))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.View(func(g *Graph) {
					if id, ok := g.Lookup("G", "g1"); ok {
						_ = g.Node(id).P
						_ = g.Reachable(id)
					}
					_ = g.Clone()
				})
				_ = s.Stat()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		p := 0.1 + float64(i%80)*0.01
		res, err := s.Apply(Delta{Source: "amigo", Ops: []Op{
			{Kind: OpSetNodeP, Node: NodeRef{"G", "g1"}, P: p},
			{Kind: OpUpsertNode, Node: NodeRef{"G", "gx"}, P: p},
		}})
		if err != nil {
			t.Fatal(err)
		}
		_ = s.SourcesReaching("P", res.Affected)
	}
	close(stop)
	wg.Wait()
}
