package rank

import (
	"context"
	"math"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/kernel"
	"biorank/internal/prob"
)

// This file pins the compiled kernels (internal/kernel) to the
// pre-kernel reference implementations. The Monte Carlo kernels promise
// STREAM IDENTITY — same RNG consumption, element for element — so
// their scores and operation counters must match the references
// bit-for-bit, not just within tolerance. The reference estimators are
// kept here, verbatim from the original reliability.go, as the oracle.

// refTraversalCounts is the original Algorithm 3.1 loop over the
// graph's [][]EdgeID adjacency.
func refTraversalCounts(qg *graph.QueryGraph, trials int, rng *prob.RNG, ops *OpStats) []int64 {
	n := qg.NumNodes()
	lastSim := make([]int32, n)
	reach := make([]int64, n)
	stack := make([]graph.NodeID, 0, 64)
	var flips, visits int64

	for t := int32(1); t <= int32(trials); t++ {
		stack = stack[:0]
		lastSim[qg.Source] = t
		flips++
		if rng.Bernoulli(qg.Node(qg.Source).P) {
			reach[qg.Source]++
			visits++
			stack = append(stack, qg.Source)
		}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, eid := range qg.Out(x) {
				e := qg.Edge(eid)
				if lastSim[e.To] == t {
					continue
				}
				flips++
				if !rng.Bernoulli(e.Q) {
					continue
				}
				lastSim[e.To] = t
				flips++
				if rng.Bernoulli(qg.Node(e.To).P) {
					reach[e.To]++
					visits++
					stack = append(stack, e.To)
				}
			}
		}
	}
	if ops != nil {
		ops.Add(OpStats{Trials: int64(trials), NodeVisits: visits, CoinFlips: flips})
	}
	return reach
}

// refNaiveMC is the original all-coins estimator.
func refNaiveMC(qg *graph.QueryGraph, trials int, seed uint64, ops *OpStats) []float64 {
	rng := prob.NewRNG(seed)
	n := qg.NumNodes()
	mEdges := qg.NumEdges()
	nodeUp := make([]bool, n)
	edgeUp := make([]bool, mEdges)
	seen := make([]bool, n)
	reach := make([]int64, n)
	stack := make([]graph.NodeID, 0, 64)
	var flips, visits int64

	for t := 0; t < trials; t++ {
		flips += int64(n) + int64(mEdges)
		for i := 0; i < n; i++ {
			nodeUp[i] = rng.Bernoulli(qg.Node(graph.NodeID(i)).P)
			seen[i] = false
		}
		for i := 0; i < mEdges; i++ {
			edgeUp[i] = rng.Bernoulli(qg.Edge(graph.EdgeID(i)).Q)
		}
		if !nodeUp[qg.Source] {
			continue
		}
		stack = append(stack[:0], qg.Source)
		seen[qg.Source] = true
		reach[qg.Source]++
		visits++
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, eid := range qg.Out(x) {
				if !edgeUp[eid] {
					continue
				}
				to := qg.Edge(eid).To
				if seen[to] || !nodeUp[to] {
					continue
				}
				seen[to] = true
				reach[to]++
				visits++
				stack = append(stack, to)
			}
		}
	}
	if ops != nil {
		ops.Add(OpStats{Trials: int64(trials), NodeVisits: visits, CoinFlips: flips})
	}
	scores := make([]float64, len(qg.Answers))
	for i, a := range qg.Answers {
		scores[i] = float64(reach[a]) / float64(trials)
	}
	return scores
}

// randomCyclicGraph builds a random graph with back edges, to exercise
// the kernels off the DAG happy path.
func randomCyclicGraph(rng *prob.RNG) *graph.QueryGraph {
	qg := randomDAG(rng)
	g := qg.Graph
	// Add a few back/self-ish edges between random distinct nodes.
	n := g.NumNodes()
	for i := 0; i < 3; i++ {
		from := graph.NodeID(rng.Intn(n))
		to := graph.NodeID(rng.Intn(n))
		if from == to {
			continue
		}
		g.AddEdge(from, to, "back", 0.5)
	}
	out, err := graph.NewQueryGraph(g, qg.Source, qg.Answers)
	if err != nil {
		panic(err)
	}
	return out
}

func TestKernelTraversalBitIdenticalToReference(t *testing.T) {
	rng := prob.NewRNG(211)
	for trial := 0; trial < 30; trial++ {
		qg := randomDAG(rng)
		if trial%3 == 2 {
			qg = randomCyclicGraph(rng)
		}
		seed := uint64(trial) * 977
		const trials = 2000

		var refOps OpStats
		reach := refTraversalCounts(qg, trials, prob.NewRNG(seed), &refOps)
		want := make([]float64, len(qg.Answers))
		for i, a := range qg.Answers {
			want[i] = float64(reach[a]) / float64(trials)
		}

		plan := kernel.Compile(qg)
		got := make([]float64, plan.NumAnswers())
		var simOps kernel.SimOps
		plan.Reliability(got, trials, prob.NewRNG(seed), &simOps)

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d answer %d: kernel %v != reference %v (stream identity broken)",
					trial, i, got[i], want[i])
			}
		}
		if simOps.CoinFlips != refOps.CoinFlips || simOps.NodeVisits != refOps.NodeVisits || simOps.Trials != refOps.Trials {
			t.Fatalf("trial %d: kernel ops %+v != reference ops %+v", trial, simOps, refOps)
		}
	}
}

func TestKernelNaiveBitIdenticalToReference(t *testing.T) {
	rng := prob.NewRNG(223)
	for trial := 0; trial < 20; trial++ {
		qg := randomDAG(rng)
		if trial%3 == 2 {
			qg = randomCyclicGraph(rng)
		}
		seed := uint64(trial)*31 + 5
		const trials = 1500

		var refOps OpStats
		want := refNaiveMC(qg, trials, seed, &refOps)

		plan := kernel.Compile(qg)
		got := make([]float64, plan.NumAnswers())
		var simOps kernel.SimOps
		plan.Naive(got, trials, prob.NewRNG(seed), &simOps)

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d answer %d: naive kernel %v != reference %v", trial, i, got[i], want[i])
			}
		}
		if simOps.CoinFlips != refOps.CoinFlips || simOps.NodeVisits != refOps.NodeVisits {
			t.Fatalf("trial %d: naive kernel ops %+v != reference ops %+v", trial, simOps, refOps)
		}
	}
}

func TestKernelPropagationMatchesReference(t *testing.T) {
	rng := prob.NewRNG(227)
	for trial := 0; trial < 40; trial++ {
		qg := randomDAG(rng)
		if trial%4 == 3 {
			qg = randomCyclicGraph(rng)
		}
		p := &Propagation{}
		res, err := p.RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		ref := (&Propagation{}).referenceScores(qg)
		for i, a := range qg.Answers {
			if res.Scores[i] != ref[a] {
				t.Fatalf("trial %d answer %d: kernel propagation %v != reference %v",
					trial, i, res.Scores[i], ref[a])
			}
		}
	}
}

func TestKernelDiffusionMatchesReference(t *testing.T) {
	rng := prob.NewRNG(229)
	for trial := 0; trial < 40; trial++ {
		qg := randomDAG(rng)
		if trial%4 == 3 {
			qg = randomCyclicGraph(rng)
		}
		d := &Diffusion{}
		res, err := d.RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		ref := (&Diffusion{}).referenceScores(qg)
		for i, a := range qg.Answers {
			// The kernel's inner solve may order tied parents differently
			// than the reference's sort.Slice, so allow ulp-level slack.
			if math.Abs(res.Scores[i]-ref[a]) > 1e-9 {
				t.Fatalf("trial %d answer %d: kernel diffusion %v != reference %v",
					trial, i, res.Scores[i], ref[a])
			}
		}
	}
}

// TestKernelTraversalMatchesExactOracle closes the loop against the
// independent possible-worlds enumerator: the kernel must converge to
// the true reliability, not merely mirror the reference.
func TestKernelTraversalMatchesExactOracle(t *testing.T) {
	rng := prob.NewRNG(233)
	for trial := 0; trial < 8; trial++ {
		qg := randomDAG(rng)
		exact := bruteReliability(qg)
		plan := kernel.Compile(qg)
		got := make([]float64, plan.NumAnswers())
		plan.Reliability(got, 60000, prob.NewRNG(uint64(trial)), nil)
		for i := range exact {
			if math.Abs(got[i]-exact[i]) > 0.02 {
				t.Errorf("trial %d answer %d: kernel %v vs exact %v", trial, i, got[i], exact[i])
			}
		}
	}
}

// TestSharedPlanAcrossRankers runs every plan-based ranker on one
// explicitly shared plan and checks scores equal the plan-free path.
func TestSharedPlanAcrossRankers(t *testing.T) {
	rng := prob.NewRNG(239)
	qg := randomDAG(rng)
	plan := kernel.Compile(qg)

	mcShared := &MonteCarlo{Trials: 3000, Seed: 4, Plan: plan}
	mcSolo := &MonteCarlo{Trials: 3000, Seed: 4}
	a, err := mcShared.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mcSolo.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatalf("shared-plan MC diverged at %d: %v != %v", i, a.Scores[i], b.Scores[i])
		}
	}

	for _, pair := range [][2]Ranker{
		{&Propagation{Plan: plan}, &Propagation{}},
		{&Diffusion{Plan: plan}, &Diffusion{}},
		{&AdaptiveMonteCarlo{Seed: 4, Plan: plan}, &AdaptiveMonteCarlo{Seed: 4}},
	} {
		ra, err := pair[0].RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := pair[1].RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ra.Scores {
			if ra.Scores[i] != rb.Scores[i] {
				t.Fatalf("%s: shared-plan scores diverged at %d: %v != %v",
					pair[0].Name(), i, ra.Scores[i], rb.Scores[i])
			}
		}
	}
}

// TestPlanMemoInvalidatedByMutation mutates a probability between Rank
// calls and checks the graph's memoized plan (kernel.PlanOf) is
// recompiled (scores change).
func TestPlanMemoInvalidatedByMutation(t *testing.T) {
	g := graph.New(2, 1)
	s := g.AddNode("Q", "s", 1)
	u := g.AddNode("A", "u", 1)
	eid := g.AddEdge(s, u, "r", 1)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{u})
	if err != nil {
		t.Fatal(err)
	}
	mc := &MonteCarlo{Trials: 500, Seed: 1}
	res, err := mc.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] != 1 {
		t.Fatalf("certain edge should score 1, got %v", res.Scores[0])
	}
	g.SetEdgeQ(eid, 0)
	res, err = mc.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] != 0 {
		t.Fatalf("stale plan served after mutation: got %v, want 0", res.Scores[0])
	}
}
