package graph

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// chain builds s -> a -> b -> t with unit probabilities.
func chain(t *testing.T) (*Graph, []NodeID) {
	t.Helper()
	g := New(4, 3)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("X", "a", 1)
	b := g.AddNode("X", "b", 1)
	tt := g.AddNode("A", "t", 1)
	g.AddEdge(s, a, "r", 1)
	g.AddEdge(a, b, "r", 1)
	g.AddEdge(b, tt, "r", 1)
	return g, []NodeID{s, a, b, tt}
}

func TestAddAndAccess(t *testing.T) {
	g := New(0, 0)
	n := g.AddNode("EntrezGene", "1234", 0.7)
	if got := g.Node(n); got.Kind != "EntrezGene" || got.Label != "1234" || got.P != 0.7 {
		t.Fatalf("node round-trip failed: %+v", got)
	}
	m := g.AddNode("AmiGO", "GO:1", 0.3)
	e := g.AddEdge(n, m, "annotates", 0.9)
	if got := g.Edge(e); got.From != n || got.To != m || got.Q != 0.9 {
		t.Fatalf("edge round-trip failed: %+v", got)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("sizes: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.OutDegree(n) != 1 || g.InDegree(m) != 1 || g.InDegree(n) != 0 {
		t.Fatal("degree bookkeeping wrong")
	}
}

func TestParallelEdgesAllowed(t *testing.T) {
	g := New(2, 2)
	a := g.AddNode("X", "a", 1)
	b := g.AddNode("X", "b", 1)
	g.AddEdge(a, b, "r", 0.5)
	g.AddEdge(a, b, "r", 0.6)
	if g.NumEdges() != 2 || g.OutDegree(a) != 2 {
		t.Fatal("parallel edges must be preserved")
	}
}

func TestAddNodeRejectsBadProbability(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 0).AddNode("X", "a", 1.5)
}

func TestAddEdgeRejectsBadEndpoint(t *testing.T) {
	g := New(1, 0)
	a := g.AddNode("X", "a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddEdge(a, NodeID(99), "r", 0.5)
}

func TestLookup(t *testing.T) {
	g, ids := chain(t)
	id, ok := g.Lookup("X", "b")
	if !ok || id != ids[2] {
		t.Fatalf("Lookup failed: %v %v", id, ok)
	}
	if _, ok := g.Lookup("X", "zzz"); ok {
		t.Fatal("Lookup found nonexistent node")
	}
	// Lookup must see nodes added after a prior lookup.
	n := g.AddNode("X", "new", 1)
	id, ok = g.Lookup("X", "new")
	if !ok || id != n {
		t.Fatal("Lookup stale after AddNode")
	}
}

func TestReachable(t *testing.T) {
	g, ids := chain(t)
	// add disconnected node
	d := g.AddNode("X", "island", 1)
	r := g.Reachable(ids[0])
	for _, id := range ids {
		if !r[id] {
			t.Fatalf("node %d should be reachable", id)
		}
	}
	if r[d] {
		t.Fatal("island should be unreachable")
	}
}

func TestCoReachable(t *testing.T) {
	g, ids := chain(t)
	d := g.AddNode("X", "island", 1)
	cr := g.CoReachable([]NodeID{ids[3]}, nil)
	for _, id := range ids {
		if !cr[id] {
			t.Fatalf("node %d should co-reach target", id)
		}
	}
	if cr[d] {
		t.Fatal("island cannot reach the target")
	}
}

func TestTopoSortDAG(t *testing.T) {
	g, _ := chain(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, n := range order {
		pos[n] = i
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(EdgeID(i))
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("topological violation on edge %v", e)
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New(2, 2)
	a := g.AddNode("X", "a", 1)
	b := g.AddNode("X", "b", 1)
	g.AddEdge(a, b, "r", 1)
	g.AddEdge(b, a, "r", 1)
	if _, err := g.TopoSort(); err != ErrCyclic {
		t.Fatalf("want ErrCyclic, got %v", err)
	}
	if g.IsDAG() {
		t.Fatal("cyclic graph reported as DAG")
	}
}

func TestLongestPathFrom(t *testing.T) {
	g, ids := chain(t)
	// Add a shortcut s->t: longest path should still be 3.
	g.AddEdge(ids[0], ids[3], "r", 1)
	got, err := g.LongestPathFrom(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("longest path = %d, want 3", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g, ids := chain(t)
	c := g.Clone()
	c.SetNodeP(ids[1], 0.1)
	c.SetEdgeQ(0, 0.2)
	if g.Node(ids[1]).P == 0.1 || g.Edge(0).Q == 0.2 {
		t.Fatal("clone shares probability state with original")
	}
	c.AddNode("X", "extra", 1)
	if g.NumNodes() == c.NumNodes() {
		t.Fatal("clone shares node storage")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, ids := chain(t)
	keep := make([]bool, g.NumNodes())
	keep[ids[0]] = true
	keep[ids[1]] = true
	keep[ids[3]] = true // drop b: edges a->b, b->t disappear
	sub, remap := g.InducedSubgraph(keep, 0, 0)
	if sub.NumNodes() != 3 {
		t.Fatalf("want 3 nodes, got %d", sub.NumNodes())
	}
	if sub.NumEdges() != 1 { // only s->a survives
		t.Fatalf("want 1 edge, got %d", sub.NumEdges())
	}
	if remap[ids[2]] != -1 {
		t.Fatal("dropped node should remap to -1")
	}
	if sub.Node(remap[ids[1]]).Label != "a" {
		t.Fatal("remap points at wrong node")
	}
}

// TestInducedSubgraphMatchesFullScan checks InducedSubgraph, which only
// visits the kept nodes' out-edges, against the full scan it replaced
// (every node, then every edge, in ID order) on random multigraphs and
// masks: same nodes, edges, adjacency order and Version(). It also
// checks the walks' set forms: a multi-source Reachable is the union of
// the single-source ones, and CoReachable within a Reachable result is
// the plain CoReachable intersected with it.
func TestInducedSubgraphMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(30)
		g := New(0, 0)
		for i := 0; i < n; i++ {
			g.AddNode("K", fmt.Sprint(i), rng.Float64())
		}
		for m := rng.Intn(3 * n); m > 0; m-- {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), fmt.Sprint(m), rng.Float64())
		}
		keep := make([]bool, n)
		for i := range keep {
			keep[i] = rng.Intn(3) > 0
		}
		want, wantRemap := New(0, 0), make([]NodeID, n)
		for i, k := range keep {
			wantRemap[i] = -1
			if k {
				nd := g.Node(NodeID(i))
				wantRemap[i] = want.AddNode(nd.Kind, nd.Label, nd.P)
			}
		}
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(EdgeID(i))
			if keep[e.From] && keep[e.To] {
				want.AddEdge(wantRemap[e.From], wantRemap[e.To], e.Kind, e.Q)
			}
		}
		got, remap := g.InducedSubgraph(keep, rng.Intn(2), rng.Intn(2))
		same := reflect.DeepEqual(remap, wantRemap) && got.Version() == want.Version() &&
			reflect.DeepEqual(got.nodes, want.nodes) && reflect.DeepEqual(got.edges, want.edges)
		for v := 0; same && v < want.NumNodes(); v++ {
			same = slices.Equal(got.Out(NodeID(v)), want.Out(NodeID(v))) && slices.Equal(got.In(NodeID(v)), want.In(NodeID(v)))
		}
		if !same {
			t.Fatalf("iteration %d: InducedSubgraph differs from the full scan", iter)
		}

		srcs := []NodeID{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
		reach := g.Reachable(srcs...)
		r0, r1 := g.Reachable(srcs[0]), g.Reachable(srcs[1])
		targets := []NodeID{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
		co, within := g.CoReachable(targets, nil), g.CoReachable(targets, reach)
		for i := 0; i < n; i++ {
			if reach[i] != (r0[i] || r1[i]) || within[i] != (co[i] && reach[i]) {
				t.Fatalf("iteration %d node %d: reach %v (singles %v, %v), co %v, within %v",
					iter, i, reach[i], r0[i], r1[i], co[i], within[i])
			}
		}
	}
}

func TestDOTContainsNodesAndEdges(t *testing.T) {
	g, _ := chain(t)
	dot := g.DOT("test")
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "->") {
		t.Fatalf("malformed DOT output:\n%s", dot)
	}
}

func TestNodesOfKindAndKinds(t *testing.T) {
	g, _ := chain(t)
	if got := g.NodesOfKind("X"); len(got) != 2 {
		t.Fatalf("want 2 X nodes, got %d", len(got))
	}
	kinds := g.Kinds()
	if len(kinds) != 3 || kinds[0] != "A" || kinds[1] != "Q" || kinds[2] != "X" {
		t.Fatalf("Kinds() = %v", kinds)
	}
}

func TestQueryGraphValidation(t *testing.T) {
	g, ids := chain(t)
	if _, err := NewQueryGraph(g, ids[0], []NodeID{ids[3]}); err != nil {
		t.Fatalf("valid query graph rejected: %v", err)
	}
	if _, err := NewQueryGraph(g, NodeID(99), nil); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := NewQueryGraph(g, ids[0], []NodeID{NodeID(99)}); err == nil {
		t.Fatal("bad answer accepted")
	}
	if _, err := NewQueryGraph(g, ids[0], []NodeID{ids[3], ids[3]}); err == nil {
		t.Fatal("duplicate answer accepted")
	}
}

func TestPruneRemovesIrrelevantNodes(t *testing.T) {
	g, ids := chain(t)
	island := g.AddNode("X", "island", 1)
	deadEnd := g.AddNode("X", "dead", 1)
	g.AddEdge(ids[1], deadEnd, "r", 1) // reachable but cannot reach answer
	_ = island
	qg, err := NewQueryGraph(g, ids[0], []NodeID{ids[3]})
	if err != nil {
		t.Fatal(err)
	}
	pruned := qg.Prune()
	if pruned.NumNodes() != 4 {
		t.Fatalf("pruned size %d, want 4", pruned.NumNodes())
	}
	if len(pruned.Answers) != 1 {
		t.Fatalf("answers lost in prune: %v", pruned.Answers)
	}
	if pruned.Node(pruned.Source).Label != "s" {
		t.Fatal("source mis-remapped")
	}
}

func TestPruneKeepsUnreachableAnswer(t *testing.T) {
	// An answer disconnected from the source is dropped from Answers.
	g := New(3, 1)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("A", "a", 1)
	b := g.AddNode("A", "b", 1)
	g.AddEdge(s, a, "r", 1)
	qg, err := NewQueryGraph(g, s, []NodeID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	pruned := qg.Prune()
	if len(pruned.Answers) != 1 {
		t.Fatalf("want 1 surviving answer, got %d", len(pruned.Answers))
	}
}

func TestAnswerIndex(t *testing.T) {
	g, ids := chain(t)
	qg, _ := NewQueryGraph(g, ids[0], []NodeID{ids[3], ids[2]})
	idx := qg.AnswerIndex()
	if idx[ids[3]] != 0 || idx[ids[2]] != 1 {
		t.Fatalf("AnswerIndex wrong: %v", idx)
	}
}

func TestCloneShallowProbsIndependent(t *testing.T) {
	g, ids := chain(t)
	qg, _ := NewQueryGraph(g, ids[0], []NodeID{ids[3]})
	cp := qg.CloneShallowProbs()
	cp.SetNodeP(ids[1], 0.05)
	if qg.Node(ids[1]).P == 0.05 {
		t.Fatal("CloneShallowProbs shares probabilities")
	}
	if cp.Source != qg.Source || len(cp.Answers) != len(qg.Answers) {
		t.Fatal("CloneShallowProbs lost query structure")
	}
}

func TestVersionBumpsOnMutation(t *testing.T) {
	g := New(2, 2)
	if g.Version() != 0 {
		t.Fatalf("fresh graph version %d, want 0", g.Version())
	}
	a := g.AddNode("K", "a", 1)
	b := g.AddNode("K", "b", 0.5)
	e := g.AddEdge(a, b, "r", 0.7)
	after := g.Version()
	if after != 3 {
		t.Fatalf("version %d after 3 mutations, want 3", after)
	}
	g.SetNodeP(b, 0.6)
	g.SetEdgeQ(e, 0.8)
	if g.Version() != after+2 {
		t.Fatalf("probability updates must bump the version: %d", g.Version())
	}
	if c := g.Clone(); c.Version() != g.Version() {
		t.Fatalf("Clone must preserve the version: %d vs %d", c.Version(), g.Version())
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	build := func(p float64) *QueryGraph {
		g := New(3, 2)
		s := g.AddNode("Q", "s", 1)
		m := g.AddNode("K", "m", p)
		a := g.AddNode("F", "a", 1)
		g.AddEdge(s, m, "r", 0.5)
		g.AddEdge(m, a, "r", 0.5)
		qg, err := NewQueryGraph(g, s, []NodeID{a})
		if err != nil {
			t.Fatal(err)
		}
		return qg
	}
	qg1, qg2 := build(0.9), build(0.9)
	if qg1.Fingerprint() != qg2.Fingerprint() {
		t.Fatal("structurally identical query graphs must share a fingerprint")
	}
	if qg1.Fingerprint() != qg1.Fingerprint() {
		t.Fatal("fingerprint must be stable")
	}
	if build(0.8).Fingerprint() == qg1.Fingerprint() {
		t.Fatal("changing a node probability must change the fingerprint")
	}
	qg3 := build(0.9)
	qg3.SetEdgeQ(0, 0.4)
	if qg3.Fingerprint() == qg1.Fingerprint() {
		t.Fatal("changing an edge probability must change the fingerprint")
	}
	qg4 := build(0.9)
	qg4.Answers = nil
	if qg4.Fingerprint() == qg1.Fingerprint() {
		t.Fatal("changing the answer set must change the fingerprint")
	}
}

// TestFingerprintMemo pins Fingerprint's memo: a query graph mutated in
// place fingerprints like a fresh copy of its new content, and decoding
// into a used query graph forgets the old value even when the decoded
// graph reaches the same Version.
func TestFingerprintMemo(t *testing.T) {
	g, ids := chain(t)
	qg, err := NewQueryGraph(g, ids[0], []NodeID{ids[3]})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() uint64 { return qg.CloneShallowProbs().Fingerprint() }
	before := qg.Fingerprint()
	qg.SetNodeP(ids[1], 0.25)
	if got, want := qg.Fingerprint(), fresh(); got != want || got == before {
		t.Fatalf("after SetNodeP: fingerprint %x, fresh copy %x, before %x", got, want, before)
	}
	before = qg.Fingerprint()
	qg.AddEdge(ids[1], ids[3], "r", 0.5)
	if got, want := qg.Fingerprint(), fresh(); got != want || got == before {
		t.Fatalf("after AddEdge: fingerprint %x, fresh copy %x, before %x", got, want, before)
	}

	// Two encodings of the same shape decode to graphs of equal Version.
	dataA, err := json.Marshal(qg)
	if err != nil {
		t.Fatal(err)
	}
	other := qg.CloneShallowProbs()
	other.SetEdgeQ(0, 0.125)
	dataB, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	var back QueryGraph
	if err := json.Unmarshal(dataA, &back); err != nil {
		t.Fatal(err)
	}
	versionA, fpA := back.Version(), back.Fingerprint()
	if err := json.Unmarshal(dataB, &back); err != nil {
		t.Fatal(err)
	}
	if back.Version() != versionA {
		t.Fatalf("decoded versions %d and %d differ; the reset is untested", versionA, back.Version())
	}
	if got, want := back.Fingerprint(), other.Fingerprint(); got != want || got == fpA {
		t.Fatalf("after UnmarshalJSON into a used graph: fingerprint %x, want %x (previous %x)", got, want, fpA)
	}
}

// TestDerive pins Derive's memo: a value is built once per Version and
// key, a mutation makes the next call rebuild it, and keys do not share
// values.
func TestDerive(t *testing.T) {
	g, ids := chain(t)
	qg, err := NewQueryGraph(g, ids[0], []NodeID{ids[3]})
	if err != nil {
		t.Fatal(err)
	}
	type keyA struct{}
	type keyB struct{}
	builds := 0
	edges := func(qg *QueryGraph) int { builds++; return qg.NumEdges() }
	if got := Derive(qg, keyA{}, edges); got != 3 || builds != 1 {
		t.Fatalf("first call: %d after %d builds, want 3 after 1", got, builds)
	}
	if got := Derive(qg, keyA{}, edges); got != 3 || builds != 1 {
		t.Fatalf("second call: %d after %d builds, want the memoized 3", got, builds)
	}
	if got := Derive(qg, keyB{}, func(qg *QueryGraph) string { return "b" }); got != "b" {
		t.Fatalf("another key returned %q", got)
	}
	qg.AddEdge(ids[0], ids[3], "r", 0.5)
	if got := Derive(qg, keyA{}, edges); got != 4 || builds != 2 {
		t.Fatalf("after AddEdge: %d after %d builds, want 4 after 2", got, builds)
	}
	if got := Derive(qg, keyB{}, func(qg *QueryGraph) string { return "rebuilt" }); got != "rebuilt" {
		t.Fatalf("after AddEdge another key returned the stale %q", got)
	}
}

// TestDeriveConcurrent races many goroutines to the same missing value,
// beside others deriving other keys and the fingerprint: every caller
// must get the one value that was published, whoever built it. Run it
// under -race.
func TestDeriveConcurrent(t *testing.T) {
	g, ids := chain(t)
	qg, err := NewQueryGraph(g, ids[0], []NodeID{ids[3]})
	if err != nil {
		t.Fatal(err)
	}
	type shared struct{}
	type own struct{ i int }
	const n = 16
	got := make([]*int, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			got[i] = Derive(qg, shared{}, func(*QueryGraph) *int { return new(int) })
			if v := Derive(qg, own{i}, func(*QueryGraph) int { return i }); v != i {
				t.Errorf("goroutine %d derived %d under its own key", i, v)
			}
			qg.Fingerprint()
		}(i)
	}
	start.Done()
	wg.Wait()
	want := Derive(qg, shared{}, func(*QueryGraph) *int { return nil })
	for i, p := range got {
		if p == nil || p != want {
			t.Fatalf("goroutine %d got %p, the memo holds %p", i, p, want)
		}
	}
	for i := 0; i < n; i++ {
		if v := Derive(qg, own{i}, func(*QueryGraph) int { return -1 }); v != i {
			t.Fatalf("key %d lost its value: %d", i, v)
		}
	}
}

// TestLookupConcurrent is the -race regression test for the lazy label
// index: many goroutines triggering the first (building) Lookup at once
// must neither race nor observe a partially built map.
func TestLookupConcurrent(t *testing.T) {
	g := New(64, 0)
	for i := 0; i < 64; i++ {
		g.AddNode("K", fmt.Sprintf("n%d", i), 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				label := fmt.Sprintf("n%d", (i+w)%64)
				id, ok := g.Lookup("K", label)
				if !ok {
					t.Errorf("worker %d: %s not found", w, label)
					return
				}
				if got := g.Node(id).Label; got != label {
					t.Errorf("worker %d: Lookup(%s) returned node %s", w, label, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLookupSeesAddNode pins the invalidation contract: a node added
// after the index was built must be found by later Lookups.
func TestLookupSeesAddNode(t *testing.T) {
	g := New(4, 0)
	g.AddNode("K", "a", 1)
	if _, ok := g.Lookup("K", "a"); !ok {
		t.Fatal("a not found")
	}
	id := g.AddNode("K", "b", 1) // inserts into the built index
	got, ok := g.Lookup("K", "b")
	if !ok || got != id {
		t.Fatalf("Lookup(b) = %v, %v after AddNode", got, ok)
	}
}

// TestLookupKindLabelDoNotCollide is the regression test for the label
// index's old "Kind/Label" string key, under which ("a/b", "c") and
// ("a", "b/c") were one key and the later node shadowed the earlier one.
// Both build orders are covered: the index built once over both nodes,
// and built before the second node is added.
func TestLookupKindLabelDoNotCollide(t *testing.T) {
	for _, lookupFirst := range []bool{false, true} {
		g := New(2, 0)
		n0 := g.AddNode("a/b", "c", 1)
		if lookupFirst {
			if _, ok := g.Lookup("a", "b/c"); ok {
				t.Fatalf("lookupFirst=%t: (a, b/c) found before it was added", lookupFirst)
			}
		}
		n1 := g.AddNode("a", "b/c", 1)
		if id, ok := g.Lookup("a/b", "c"); !ok || id != n0 {
			t.Errorf("lookupFirst=%t: Lookup(a/b, c) = %d, %t; want %d", lookupFirst, id, ok, n0)
		}
		if id, ok := g.Lookup("a", "b/c"); !ok || id != n1 {
			t.Errorf("lookupFirst=%t: Lookup(a, b/c) = %d, %t; want %d", lookupFirst, id, ok, n1)
		}
		if _, ok := g.Lookup("a/b/c", ""); ok {
			t.Errorf("lookupFirst=%t: Lookup(a/b/c, \"\") found a node", lookupFirst)
		}
	}
}
