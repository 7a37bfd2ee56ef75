package kernel

import (
	"math"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

// perturbProbs rewrites every probability of qg deterministically, so a
// patched plan's thresholds all differ from the plan it derives from.
func perturbProbs(qg *graph.QueryGraph, seed uint64) {
	rng := prob.NewRNG(seed)
	for i := 0; i < qg.NumNodes(); i++ {
		id := graph.NodeID(i)
		if id == qg.Source {
			continue // keep the query node certain
		}
		qg.SetNodeP(id, 0.05+0.9*rng.Float64())
	}
	for i := 0; i < qg.NumEdges(); i++ {
		qg.SetEdgeQ(graph.EdgeID(i), 0.05+0.9*rng.Float64())
	}
}

// TestPatchBitIdentical is the correctness bar for incremental plan
// maintenance: after a probability-only delta, a patched plan must score
// bit-identically to a freshly compiled plan of the same graph state,
// under every kernel, for a fixed seed.
func TestPatchBitIdentical(t *testing.T) {
	qg := benchPlanGraph()
	old := Compile(qg)
	perturbProbs(qg, 7)

	patched, ok := old.Patch(qg)
	if !ok {
		t.Fatal("Patch refused a probability-only change")
	}
	fresh := Compile(qg)

	run := func(name string, f func(p *Plan, scores []float64)) {
		t.Helper()
		a := make([]float64, patched.NumAnswers())
		b := make([]float64, fresh.NumAnswers())
		f(patched, a)
		f(fresh, b)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Errorf("%s: answer %d: patched %v != compiled %v", name, i, a[i], b[i])
				return
			}
		}
	}
	run("Reliability", func(p *Plan, s []float64) {
		p.Reliability(s, 2000, prob.NewRNG(42), nil)
	})
	run("Naive", func(p *Plan, s []float64) {
		p.Naive(s, 500, prob.NewRNG(42), nil)
	})
	run("Worlds", func(p *Plan, s []float64) {
		p.reliabilityWorlds(s, 2000, prob.NewRNG(42), nil)
	})
	run("WorldsBlock", func(p *Plan, s []float64) {
		p.reliabilityWorldsBlock(s, 2000, prob.NewRNG(42), nil)
	})
	run("Propagation", func(p *Plan, s []float64) {
		p.Propagation(s, p.LongestFromSource(), 1e-12, true)
	})
	run("Diffusion", func(p *Plan, s []float64) {
		p.Diffusion(s, p.LongestFromSource(), 1e-12, true)
	})
}

// TestPatchLeavesOldPlanIntact: concurrent readers of the old plan must
// be undisturbed — patching is copy-on-write, never in-place.
func TestPatchLeavesOldPlanIntact(t *testing.T) {
	qg := benchPlanGraph()
	old := Compile(qg)
	before := make([]float64, old.NumAnswers())
	old.Reliability(before, 1000, prob.NewRNG(9), nil)

	perturbProbs(qg, 11)
	if _, ok := old.Patch(qg); !ok {
		t.Fatal("Patch refused")
	}

	after := make([]float64, old.NumAnswers())
	old.Reliability(after, 1000, prob.NewRNG(9), nil)
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("old plan changed by Patch: answer %d %v -> %v", i, before[i], after[i])
		}
	}
}

// TestPatchRejectsTopologyChange: wiring changes must force a recompile.
func TestPatchRejectsTopologyChange(t *testing.T) {
	qg := benchPlanGraph()
	old := Compile(qg)

	// Different graph: extra edge (same node count).
	g2 := qg.Graph.Clone()
	g2.AddEdge(qg.Source, qg.Answers[0], "extra", 0.5)
	qg2 := &graph.QueryGraph{Graph: g2, Source: qg.Source, Answers: qg.Answers}
	if _, ok := old.Patch(qg2); ok {
		t.Error("Patch accepted an edge addition")
	}

	// Same counts, different wiring: rebuild with two edges swapped.
	g3 := graph.New(qg.NumNodes(), qg.NumEdges())
	for i := 0; i < qg.NumNodes(); i++ {
		n := qg.Node(graph.NodeID(i))
		g3.AddNode(n.Kind, n.Label, n.P)
	}
	for i := 0; i < qg.NumEdges(); i++ {
		e := qg.Edge(graph.EdgeID(i))
		to := e.To
		if i == 0 {
			to = qg.Edge(1).To // reroute edge 0
		}
		g3.AddEdge(e.From, to, e.Kind, e.Q)
	}
	qg3 := &graph.QueryGraph{Graph: g3, Source: qg.Source, Answers: qg.Answers}
	if _, ok := old.Patch(qg3); ok {
		t.Error("Patch accepted rerouted wiring")
	}

	// nil / mismatched shape.
	if _, ok := old.Patch(nil); ok {
		t.Error("Patch accepted nil graph")
	}
}

// TestTopoFingerprintTracksWiring ties the graph-side patch gate to the
// kernel: equal topo fingerprints on probability edits, different ones on
// any wiring change.
func TestTopoFingerprintTracksWiring(t *testing.T) {
	qg := benchPlanGraph()
	tf := qg.TopoFingerprint()
	fp := qg.Fingerprint()
	perturbProbs(qg, 3)
	if qg.TopoFingerprint() != tf {
		t.Error("TopoFingerprint changed on probability-only edits")
	}
	if qg.Fingerprint() == fp {
		t.Error("Fingerprint did not change on probability edits")
	}
	g2 := qg.Graph.Clone()
	g2.AddEdge(qg.Source, qg.Answers[0], "extra", 0.5)
	qg2 := &graph.QueryGraph{Graph: g2, Source: qg.Source, Answers: qg.Answers}
	if qg2.TopoFingerprint() == tf {
		t.Error("TopoFingerprint unchanged after edge addition")
	}
}
