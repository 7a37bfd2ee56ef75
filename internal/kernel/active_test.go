package kernel

import (
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

// forkGraph builds a two-branch query graph whose branches only share
// the source: pruning the answer of one branch makes the whole branch
// dead, which the masked kernel must stop simulating.
//
//	s -> a1 -> a2 (answer 0)
//	s -> b1 -> b2 (answer 1)
func forkGraph() *graph.QueryGraph {
	g := graph.New(5, 4)
	s := g.AddNode("Q", "s", 1)
	a1 := g.AddNode("X", "a1", 0.9)
	a2 := g.AddNode("A", "a2", 0.8)
	b1 := g.AddNode("X", "b1", 0.7)
	b2 := g.AddNode("A", "b2", 0.6)
	g.AddEdge(s, a1, "r", 0.9)
	g.AddEdge(a1, a2, "r", 0.9)
	g.AddEdge(s, b1, "r", 0.9)
	g.AddEdge(b1, b2, "r", 0.9)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{a2, b2})
	if err != nil {
		panic(err)
	}
	return qg
}

// TestActiveMaskClosure pins the live-set computation: the closure of an
// answer subset is exactly the nodes that can reach one of its answers.
func TestActiveMaskClosure(t *testing.T) {
	plan := Compile(forkGraph())
	mask := make([]bool, plan.NumNodes())

	plan.ActiveMask([]int{0, 1}, mask)
	for i, m := range mask {
		if !m {
			t.Errorf("full active set: node %d not live", i)
		}
	}

	plan.ActiveMask([]int{0}, mask) // only the a-branch answer
	want := []bool{true, true, true, false, false}
	for i, m := range mask {
		if m != want[i] {
			t.Errorf("a-branch closure: node %d live=%v, want %v", i, m, want[i])
		}
	}

	plan.ActiveMask(nil, mask) // nothing active: everything dead
	for i, m := range mask {
		if m {
			t.Errorf("empty active set: node %d live", i)
		}
	}
}

// TestMaskedFullMaskIsBitIdentical pins that with every node live the
// masked kernel consumes the RNG and counts operations exactly like the
// unmasked one — the mask check must be a pure filter, not a semantic
// change.
func TestMaskedFullMaskIsBitIdentical(t *testing.T) {
	qg := chainGraph()
	plan := Compile(qg)
	n := plan.NumNodes()
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = true
	}
	const trials = 4000
	ref := make([]int64, n)
	var refOps SimOps
	plan.ReliabilityCounts(ref, nil, trials, prob.NewRNG(9), &refOps)
	got := make([]int64, n)
	var gotOps SimOps
	plan.ReliabilityCounts(got, mask, trials, prob.NewRNG(9), &gotOps)
	for i := range ref {
		if ref[i] != got[i] {
			t.Errorf("node %d: masked count %d != unmasked %d", i, got[i], ref[i])
		}
	}
	if refOps != gotOps {
		t.Errorf("ops diverged: masked %+v vs unmasked %+v", gotOps, refOps)
	}
}

// TestMaskedSkipsDeadBranch verifies that masking one branch of the fork
// leaves the live answer's estimate unbiased while doing strictly less
// work, and that the dead answer accumulates nothing.
func TestMaskedSkipsDeadBranch(t *testing.T) {
	plan := Compile(forkGraph())
	n := plan.NumNodes()
	const trials = 20000
	mask := make([]bool, n)
	plan.ActiveMask([]int{0}, mask)

	full := make([]int64, n)
	var fullOps SimOps
	plan.ReliabilityCounts(full, nil, trials, prob.NewRNG(4), &fullOps)
	masked := make([]int64, n)
	var maskedOps SimOps
	plan.ReliabilityCounts(masked, mask, trials, prob.NewRNG(4), &maskedOps)

	a2 := plan.AnswerNode(0)
	b2 := plan.AnswerNode(1)
	if masked[b2] != 0 {
		t.Errorf("dead answer accumulated %d reaches", masked[b2])
	}
	// The live answer's estimate must agree with the full simulation up
	// to Monte Carlo noise (different RNG consumption, same law). True
	// reach probability of a2 is 0.9*0.9*0.9*0.8 ≈ 0.583.
	fullP := float64(full[a2]) / trials
	maskP := float64(masked[a2]) / trials
	if diff := fullP - maskP; diff > 0.02 || diff < -0.02 {
		t.Errorf("live answer estimate drifted: full %.4f vs masked %.4f", fullP, maskP)
	}
	if maskedOps.CoinFlips >= fullOps.CoinFlips {
		t.Errorf("masked run flipped %d coins, full run %d — no work saved", maskedOps.CoinFlips, fullOps.CoinFlips)
	}
}

// TestMaskedDeadSource pins the degenerate case: when the source cannot
// reach any active answer the masked kernel must account the trials and
// touch nothing else.
func TestMaskedDeadSource(t *testing.T) {
	plan := Compile(forkGraph())
	mask := make([]bool, plan.NumNodes()) // all dead
	counts := make([]int64, plan.NumNodes())
	rng := prob.NewRNG(1)
	s0 := rng.State()
	var ops SimOps
	plan.ReliabilityCounts(counts, mask, 500, rng, &ops)
	for i, c := range counts {
		if c != 0 {
			t.Errorf("node %d counted %d with dead source", i, c)
		}
	}
	if ops.Trials != 500 || ops.CoinFlips != 0 || ops.NodeVisits != 0 {
		t.Errorf("dead-source ops = %+v", ops)
	}
	if rng.State() != s0 {
		t.Error("dead-source run consumed RNG draws")
	}
}
