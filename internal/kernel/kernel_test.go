package kernel

import (
	"math"
	"sync"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

// TestXRNGMatchesProbRNG pins the stream-identity contract of the local
// stepper: borrow/next/release must reproduce prob.RNG.Float64 draw for
// draw and leave the source generator in the exact state sequential use
// would.
func TestXRNGMatchesProbRNG(t *testing.T) {
	ref := prob.NewRNG(42)
	rng := prob.NewRNG(42)
	for round := 0; round < 5; round++ {
		xr := borrowRNG(rng)
		for i := 0; i < 100; i++ {
			if got, want := xr.next(), ref.Float64(); got != want {
				t.Fatalf("round %d draw %d: %v != %v", round, i, got, want)
			}
		}
		xr.release(rng)
		// Interleave direct use to prove release restored the state.
		if got, want := rng.Float64(), ref.Float64(); got != want {
			t.Fatalf("round %d: post-release draw %v != %v", round, got, want)
		}
	}
}

// TestCoinBitsEquivalence verifies the integer-threshold coin is exactly
// Float64() < p for every representable draw near the threshold.
func TestCoinBitsEquivalence(t *testing.T) {
	rng := prob.NewRNG(7)
	probs := []float64{0, 1, 0.5, 0.1, 0.9, 1e-17, 1 - 1e-16, 0x1p-53, 1 - 0x1p-53}
	for i := 0; i < 200; i++ {
		probs = append(probs, rng.Float64())
	}
	for _, p := range probs {
		tb := coinBits(p)
		// Scan draws around the threshold boundary plus extremes.
		candidates := []uint64{0, 1, 1<<53 - 1}
		if tb > 0 && tb != coinCertain {
			candidates = append(candidates, tb-1, tb)
			if tb < 1<<53-1 {
				candidates = append(candidates, tb+1)
			}
		}
		for _, u := range candidates {
			f := float64(u) * 0x1.0p-53
			want := f < p
			var got bool
			switch {
			case tb == coinCertain:
				got = true
			case tb == 0:
				got = false
			default:
				got = u < tb
			}
			if got != want {
				t.Fatalf("p=%v u=%d: integer coin %v, float coin %v", p, u, got, want)
			}
		}
	}
}

func chainGraph() *graph.QueryGraph {
	g := graph.New(4, 3)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("X", "a", 0.5)
	b := g.AddNode("X", "b", 1)
	u := g.AddNode("A", "u", 0.8)
	g.AddEdge(s, a, "r", 0.9)
	g.AddEdge(a, b, "r", 0.7)
	g.AddEdge(b, u, "r", 1)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{u, b})
	if err != nil {
		panic(err)
	}
	return qg
}

func TestCompileShape(t *testing.T) {
	qg := chainGraph()
	plan := Compile(qg)
	if plan.NumNodes() != 4 || plan.NumEdges() != 3 || plan.NumAnswers() != 2 {
		t.Fatalf("plan shape %d/%d/%d", plan.NumNodes(), plan.NumEdges(), plan.NumAnswers())
	}
	if !plan.IsDAG() || plan.LongestFromSource() != 3 {
		t.Fatalf("DAG info: isDAG=%v longest=%d", plan.IsDAG(), plan.LongestFromSource())
	}
	if !plan.Matches(qg) {
		t.Fatal("plan does not match its own graph")
	}
	other := chainGraph()
	other.AddNode("X", "extra", 1)
	if plan.Matches(other) {
		t.Fatal("plan matched a structurally different graph")
	}
}

func TestReliabilityDeterministicAndInRange(t *testing.T) {
	plan := Compile(chainGraph())
	a := make([]float64, plan.NumAnswers())
	b := make([]float64, plan.NumAnswers())
	plan.Reliability(a, 5000, prob.NewRNG(3), nil)
	plan.Reliability(b, 5000, prob.NewRNG(3), nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("answer %d: %v != %v across identical runs", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] > 1 {
			t.Fatalf("score %v outside [0,1]", a[i])
		}
	}
}

// TestScratchEpochWraparound forces the stamp counter past its reset
// threshold and checks simulations stay correct.
func TestScratchEpochWraparound(t *testing.T) {
	plan := Compile(chainGraph())
	sc := plan.getScratch()
	sc.epoch = math.MaxInt32 - 10
	plan.putScratch(sc)
	scores := make([]float64, plan.NumAnswers())
	plan.Reliability(scores, 100, prob.NewRNG(1), nil)
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score %v outside [0,1] after epoch wrap", s)
		}
	}
}

// TestConcurrentKernelsShareOnePlan runs many goroutines over a single
// plan; the race detector plus score equality check read-only sharing.
func TestConcurrentKernelsShareOnePlan(t *testing.T) {
	plan := Compile(chainGraph())
	want := make([]float64, plan.NumAnswers())
	plan.Reliability(want, 2000, prob.NewRNG(9), nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, plan.NumAnswers())
			for i := 0; i < 5; i++ {
				plan.Reliability(got, 2000, prob.NewRNG(9), nil)
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("concurrent run diverged: %v != %v", got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSimOpsAccumulate checks the counters add across calls and match
// between the counted and uncounted paths (same scores either way).
func TestSimOpsAccumulate(t *testing.T) {
	plan := Compile(chainGraph())
	scores := make([]float64, plan.NumAnswers())
	var ops SimOps
	plan.Reliability(scores, 100, prob.NewRNG(5), &ops)
	if ops.Trials != 100 || ops.CoinFlips == 0 {
		t.Fatalf("ops after one call: %+v", ops)
	}
	first := ops
	plan.Reliability(scores, 100, prob.NewRNG(5), &ops)
	if ops.Trials != 2*first.Trials || ops.CoinFlips != 2*first.CoinFlips || ops.NodeVisits != 2*first.NodeVisits {
		t.Fatalf("ops did not accumulate: %+v vs first %+v", ops, first)
	}
	counted := make([]float64, plan.NumAnswers())
	plan.Reliability(counted, 3000, prob.NewRNG(11), new(SimOps))
	fast := make([]float64, plan.NumAnswers())
	plan.Reliability(fast, 3000, prob.NewRNG(11), nil)
	for i := range counted {
		if counted[i] != fast[i] {
			t.Fatalf("counted/uncounted paths diverge: %v != %v", counted[i], fast[i])
		}
	}
}

// TestReliabilityCountsAccumulates checks the batch API adds into the
// caller's accumulator and continues the RNG stream across batches.
func TestReliabilityCountsAccumulates(t *testing.T) {
	plan := Compile(chainGraph())
	oneShot := make([]float64, plan.NumAnswers())
	plan.Reliability(oneShot, 4000, prob.NewRNG(13), nil)

	counts := make([]int64, plan.NumNodes())
	rng := prob.NewRNG(13)
	for batch := 0; batch < 4; batch++ {
		plan.ReliabilityCounts(counts, nil, 1000, rng, nil)
	}
	batched := make([]float64, plan.NumAnswers())
	plan.ScoresFromCounts(counts, 4000, batched)
	for i := range oneShot {
		if oneShot[i] != batched[i] {
			t.Fatalf("batched simulation diverged: %v != %v", batched[i], oneShot[i])
		}
	}
}

// TestPlanOfAfterDecodeIntoUsedGraph decodes a second graph of the same
// Version into a QueryGraph whose plan is memoized: PlanOf must compile
// the new graph, not return the old graph's plan.
func TestPlanOfAfterDecodeIntoUsedGraph(t *testing.T) {
	// Three nodes and two edges each, so both decode to the same
	// Version; the answer sets differ, which Matches checks.
	const first = `{"graph":{"nodes":[{"kind":"Q","label":"s","p":1},{"kind":"X","label":"a","p":0.5},{"kind":"A","label":"t","p":1}],` +
		`"edges":[{"from":0,"to":1,"q":1},{"from":1,"to":2,"q":0.5}]},"source":0,"answers":[2]}`
	const second = `{"graph":{"nodes":[{"kind":"Q","label":"s","p":1},{"kind":"A","label":"u","p":1},{"kind":"A","label":"v","p":0.25}],` +
		`"edges":[{"from":0,"to":1,"q":0.5},{"from":0,"to":2,"q":1}]},"source":0,"answers":[1,2]}`
	var qg graph.QueryGraph
	if err := qg.UnmarshalJSON([]byte(first)); err != nil {
		t.Fatal(err)
	}
	old := PlanOf(&qg)
	if !old.Matches(&qg) || PlanOf(&qg) != old {
		t.Fatal("PlanOf does not memoize a plan that matches its graph")
	}
	version := qg.Version()
	if err := qg.UnmarshalJSON([]byte(second)); err != nil {
		t.Fatal(err)
	}
	if qg.Version() != version {
		t.Fatalf("the two graphs decode to Versions %d and %d; the reuse case is untested", version, qg.Version())
	}
	if plan := PlanOf(&qg); plan == old || !plan.Matches(&qg) {
		t.Fatal("PlanOf served the previous graph's plan after UnmarshalJSON")
	}
}
