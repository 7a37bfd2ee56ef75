package kernel

import (
	"math"
	"math/bits"
	"strings"
	"sync"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

// TestNextWordMatchesUint64 pins the full-word stepper to
// prob.RNG.Uint64 draw for draw, the way nextBits is pinned to Float64.
func TestNextWordMatchesUint64(t *testing.T) {
	ref := prob.NewRNG(42)
	rng := prob.NewRNG(42)
	xr := borrowRNG(rng)
	for i := 0; i < 200; i++ {
		if got, want := xr.nextWord(), ref.Uint64(); got != want {
			t.Fatalf("draw %d: %#x != %#x", i, got, want)
		}
	}
	xr.release(rng)
	if got, want := rng.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("post-release draw %#x != %#x", got, want)
	}
}

// TestBernoulliMaskPerBitFrequency checks, for each of the 64 lanes
// independently, that the empirical success frequency of the
// binary-expansion mask sampler stays within binomial confidence bounds
// of the compiled coin probability tb·2⁻⁵³ — the per-bit Bernoulli(p)
// property the bit-parallel kernel rests on.
func TestBernoulliMaskPerBitFrequency(t *testing.T) {
	const n = 40000
	// z = 5 per lane: with 64 lanes × 4 probabilities = 256 checks the
	// union failure probability is ~1.5e-4, and the seed is fixed anyway.
	const z = 5.0
	for _, p := range []float64{0.01, 0.3, 0.5, 0.97} {
		tb := coinBits(p)
		pEff := float64(tb) * 0x1p-53 // the exact compiled coin probability
		rng := prob.NewRNG(7)
		xr := borrowRNG(rng)
		var perBit [64]int
		for i := 0; i < n; i++ {
			m := xr.bernoulliMask(tb)
			for b := 0; b < 64; b++ {
				if m&(1<<uint(b)) != 0 {
					perBit[b]++
				}
			}
		}
		xr.release(rng)
		bound := z * math.Sqrt(pEff*(1-pEff)/n)
		for b := 0; b < 64; b++ {
			freq := float64(perBit[b]) / n
			if math.Abs(freq-pEff) > bound {
				t.Errorf("p=%v bit %d: frequency %v deviates from %v by more than %v", p, b, freq, pEff, bound)
			}
		}
	}
}

// TestBernoulliMaskBitIndependence smoke-tests pairwise independence of
// adjacent lanes: the empirical correlation coefficient of bits (b,
// b+1) must vanish at the CLT rate. Correlated lanes would make the 64
// worlds of one word non-independent and silently shrink the effective
// sample size.
func TestBernoulliMaskBitIndependence(t *testing.T) {
	const n = 40000
	const z = 5.0
	for _, p := range []float64{0.01, 0.3, 0.5, 0.97} {
		tb := coinBits(p)
		pEff := float64(tb) * 0x1p-53
		rng := prob.NewRNG(11)
		xr := borrowRNG(rng)
		var joint [64]int  // bit b AND bit b+1 both set
		var single [64]int // bit b set
		var last int       // bit 63 set
		for i := 0; i < n; i++ {
			m := xr.bernoulliMask(tb)
			for b := 0; b < 63; b++ {
				if m&(1<<uint(b)) != 0 {
					single[b]++
					if m&(1<<uint(b+1)) != 0 {
						joint[b]++
					}
				}
			}
			if m&(1<<63) != 0 {
				last++
			}
		}
		xr.release(rng)
		v := pEff * (1 - pEff)
		// Under independence b_i·b_(i+1) is Bernoulli(p²), so the joint
		// frequency stays within z·√(p²(1−p²)/n) of p²; dividing by the
		// marginal variance turns that into the correlation bound.
		p2 := pEff * pEff
		bound := z * math.Sqrt(p2*(1-p2)/n) / v
		for b := 0; b < 63; b++ {
			p11 := float64(joint[b]) / n
			corr := (p11 - p2) / v
			if math.Abs(corr) > bound {
				t.Errorf("p=%v bits (%d,%d): correlation %v exceeds %v", p, b, b+1, corr, bound)
			}
		}
	}
}

// TestBernoulliMaskCertainAndZero covers the branch callers own: the
// sampler is never called for p<=0 / p>=1, and the kernels substitute
// constant masks without consuming the RNG.
func TestBernoulliMaskCertainAndZero(t *testing.T) {
	g := graph.New(2, 1)
	s := g.AddNode("Q", "s", 1)
	u := g.AddNode("A", "u", 0) // impossible node
	g.AddEdge(s, u, "r", 1)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{u})
	if err != nil {
		t.Fatal(err)
	}
	plan := Compile(qg)
	scores := make([]float64, 1)
	rng := prob.NewRNG(3)
	before := rng.State()
	plan.reliabilityWorlds(scores, 640, rng, nil)
	if scores[0] != 0 {
		t.Fatalf("impossible answer scored %v", scores[0])
	}
	if rng.State() != before {
		t.Fatal("certain/impossible elements consumed RNG words")
	}
}

// exactReliability computes per-answer reliability by brute-force
// possible-world enumeration — the ground truth the estimators must
// agree with on small graphs. Only uncertain elements (0 < p < 1) are
// enumerated.
func exactReliability(qg *graph.QueryGraph) []float64 {
	n, m := qg.NumNodes(), qg.NumEdges()
	type unc struct {
		node bool
		id   int
		p    float64
	}
	var us []unc
	nodeUp := make([]bool, n)
	edgeUp := make([]bool, m)
	for i := 0; i < n; i++ {
		p := qg.Node(graph.NodeID(i)).P
		nodeUp[i] = p >= 1
		if p > 0 && p < 1 {
			us = append(us, unc{node: true, id: i, p: p})
		}
	}
	for e := 0; e < m; e++ {
		q := qg.Edge(graph.EdgeID(e)).Q
		edgeUp[e] = q >= 1
		if q > 0 && q < 1 {
			us = append(us, unc{node: false, id: e, p: q})
		}
	}
	out := make([]float64, len(qg.Answers))
	reach := make([]bool, n)
	var stack []graph.NodeID
	for world := 0; world < 1<<len(us); world++ {
		w := 1.0
		for j, u := range us {
			up := world&(1<<j) != 0
			if up {
				w *= u.p
			} else {
				w *= 1 - u.p
			}
			if u.node {
				nodeUp[u.id] = up
			} else {
				edgeUp[u.id] = up
			}
		}
		for i := range reach {
			reach[i] = false
		}
		if nodeUp[qg.Source] {
			reach[qg.Source] = true
			stack = append(stack[:0], qg.Source)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, eid := range qg.Out(x) {
					if !edgeUp[eid] {
						continue
					}
					to := qg.Edge(eid).To
					if !reach[to] && nodeUp[to] {
						reach[to] = true
						stack = append(stack, to)
					}
				}
			}
		}
		for i, a := range qg.Answers {
			if reach[a] {
				out[i] += w
			}
		}
	}
	return out
}

// diamondGraph is a small multi-path graph (uncertain diamond plus a
// dangling answer) with 9 uncertain elements — rich enough to exercise
// re-expansion, cheap enough to enumerate exactly.
func diamondGraph() *graph.QueryGraph {
	g := graph.New(5, 6)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("X", "a", 0.7)
	b := g.AddNode("X", "b", 0.6)
	u := g.AddNode("A", "u", 0.9)
	v := g.AddNode("A", "v", 0.5)
	g.AddEdge(s, a, "r", 0.8)
	g.AddEdge(s, b, "r", 0.5)
	g.AddEdge(a, u, "r", 0.9)
	g.AddEdge(b, u, "r", 0.7)
	g.AddEdge(a, b, "r", 0.4)
	g.AddEdge(u, v, "r", 0.6)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{u, v, b})
	if err != nil {
		panic(err)
	}
	return qg
}

// TestWorldsMatchesExact checks the bit-parallel estimator against
// brute-force possible-world enumeration on small graphs: every
// per-answer estimate must land within a z·σ CLT band of the exact
// reliability.
func TestWorldsMatchesExact(t *testing.T) {
	const trials = 128000
	const z = 5.0
	for _, tc := range []struct {
		name string
		qg   *graph.QueryGraph
	}{
		{"chain", chainGraph()},
		{"diamond", diamondGraph()},
	} {
		exact := exactReliability(tc.qg)
		plan := Compile(tc.qg)
		scores := make([]float64, plan.NumAnswers())
		plan.reliabilityWorlds(scores, trials, prob.NewRNG(17), nil)
		for i := range scores {
			sigma := math.Sqrt(exact[i] * (1 - exact[i]) / trials)
			if math.Abs(scores[i]-exact[i]) > z*sigma+1e-12 {
				t.Errorf("%s answer %d: worlds estimate %v vs exact %v (> %v·σ, σ=%v)",
					tc.name, i, scores[i], exact[i], z, sigma)
			}
		}
	}
}

// TestWorldsMatchesScalarStatistically runs a two-sample z-test between
// the scalar traversal kernel and the bit-parallel kernel on the same
// graph: with n trials each, the difference of the two estimates is
// within z·√(2·p(1−p)/n) — the statistical (not bitwise) equivalence
// contract of the worlds variant.
func TestWorldsMatchesScalarStatistically(t *testing.T) {
	const trials = 128000
	const z = 5.0
	qg := diamondGraph()
	plan := Compile(qg)
	scalar := make([]float64, plan.NumAnswers())
	worlds := make([]float64, plan.NumAnswers())
	plan.Reliability(scalar, trials, prob.NewRNG(23), nil)
	plan.reliabilityWorlds(worlds, trials, prob.NewRNG(29), nil)
	for i := range scalar {
		v := scalar[i] * (1 - scalar[i])
		bound := z*math.Sqrt(2*v/trials) + 1e-12
		if math.Abs(scalar[i]-worlds[i]) > bound {
			t.Errorf("answer %d: scalar %v vs worlds %v differ by more than %v", i, scalar[i], worlds[i], bound)
		}
	}
}

// TestWorldsChiSquareAgainstScalar bins per-batch reach counts of the
// answer node from both estimators and runs a chi-square two-sample
// homogeneity test: the world-count distribution of the bit-parallel
// kernel must be indistinguishable from the scalar kernel's per-trial
// Bernoulli aggregated 64 at a time (Binomial(64, p) in both cases).
func TestWorldsChiSquareAgainstScalar(t *testing.T) {
	qg := chainGraph()
	plan := Compile(qg)
	answer := plan.AnswerNode(0)
	const batches = 4000

	// Scalar: 64 trials per batch, count answer reaches.
	scalarCounts := make([]int, batches)
	rng := prob.NewRNG(31)
	counts := make([]int64, plan.NumNodes())
	for b := 0; b < batches; b++ {
		for i := range counts {
			counts[i] = 0
		}
		plan.ReliabilityCounts(counts, WordSize, rng, nil)
		scalarCounts[b] = int(counts[answer])
	}
	// Worlds: one word-trial per batch.
	worldCounts := make([]int, batches)
	wrng := prob.NewRNG(37)
	for b := 0; b < batches; b++ {
		for i := range counts {
			counts[i] = 0
		}
		plan.reliabilityCountsWorlds(counts, 1, wrng, nil)
		worldCounts[b] = int(counts[answer])
	}

	// Pool into coarse bins (quartiles of the binomial around 64p) so
	// every expected cell count is comfortably large.
	mean := 0.0
	for _, c := range scalarCounts {
		mean += float64(c)
	}
	mean /= batches
	sd := math.Sqrt(mean * (1 - mean/WordSize))
	edges := []float64{mean - sd, mean, mean + sd}
	bin := func(c int) int {
		x := float64(c)
		for i, e := range edges {
			if x < e {
				return i
			}
		}
		return len(edges)
	}
	k := len(edges) + 1
	obsA, obsB := make([]float64, k), make([]float64, k)
	for i := 0; i < batches; i++ {
		obsA[bin(scalarCounts[i])]++
		obsB[bin(worldCounts[i])]++
	}
	var chi2 float64
	for i := 0; i < k; i++ {
		pooled := (obsA[i] + obsB[i]) / 2
		if pooled == 0 {
			continue
		}
		dA, dB := obsA[i]-pooled, obsB[i]-pooled
		chi2 += dA * dA / pooled
		chi2 += dB * dB / pooled
	}
	// k-1 = 3 degrees of freedom; 27.9 is the 1e-5 tail. A systematic
	// distributional difference between the estimators blows far past
	// this with 4000 samples a side.
	if chi2 > 27.9 {
		t.Errorf("chi-square %v exceeds the 1e-5 critical value 27.9 (scalar %v vs worlds %v)", chi2, obsA, obsB)
	}
}

// TestWorldsBatchingContinuesStream checks word batches resume the RNG
// exactly: many small ReliabilityCountsWorlds calls equal one big call
// for the same seed, so adaptive batching cannot skew the estimator.
func TestWorldsBatchingContinuesStream(t *testing.T) {
	plan := Compile(diamondGraph())
	oneShot := make([]int64, plan.NumNodes())
	plan.reliabilityCountsWorlds(oneShot, 64, prob.NewRNG(41), nil)

	batched := make([]int64, plan.NumNodes())
	rng := prob.NewRNG(41)
	for b := 0; b < 8; b++ {
		plan.reliabilityCountsWorlds(batched, 8, rng, nil)
	}
	for i := range oneShot {
		if oneShot[i] != batched[i] {
			t.Fatalf("node %d: batched count %d != one-shot %d", i, batched[i], oneShot[i])
		}
	}
}

// TestWorldsSimOps pins the bit-parallel operation accounting: Trials
// counts worlds (64 per word), NodeVisits counts per-world reach events
// (so it agrees with ScoresFromCounts), and CoinFlips counts element
// decisions per sampled word.
func TestWorldsSimOps(t *testing.T) {
	plan := Compile(diamondGraph())
	counts := make([]int64, plan.NumNodes())
	var ops SimOps
	plan.reliabilityCountsWorlds(counts, 10, prob.NewRNG(43), &ops)
	if ops.Trials != 640 {
		t.Errorf("Trials = %d, want 10 words × 64 = 640", ops.Trials)
	}
	var reaches int64
	for _, c := range counts {
		reaches += c
	}
	if ops.NodeVisits != reaches {
		t.Errorf("NodeVisits = %d, want total reach count %d", ops.NodeVisits, reaches)
	}
	// Every element of the diamond is uncertain, so flips are at most
	// (1 source + 6 edges + 4 nodes) per word and at least 1 (the
	// source), counted per word rather than per world.
	if ops.CoinFlips < 10 || ops.CoinFlips > 11*10 {
		t.Errorf("CoinFlips = %d outside the per-word decision range [10, 110]", ops.CoinFlips)
	}
	// A second identical run doubles every counter.
	first := ops
	plan.reliabilityCountsWorlds(counts, 10, prob.NewRNG(43), &ops)
	if ops.Trials != 2*first.Trials || ops.CoinFlips != 2*first.CoinFlips || ops.NodeVisits != 2*first.NodeVisits {
		t.Errorf("ops did not accumulate: %+v vs first %+v", ops, first)
	}
}

// TestWorldsDeterministicAndConcurrent runs the worlds kernel from many
// goroutines on one shared plan: identical seeds must give identical
// scores, and the race detector checks read-only plan sharing.
func TestWorldsDeterministicAndConcurrent(t *testing.T) {
	plan := Compile(diamondGraph())
	want := make([]float64, plan.NumAnswers())
	plan.reliabilityWorlds(want, 2048, prob.NewRNG(47), nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, plan.NumAnswers())
			for i := 0; i < 4; i++ {
				plan.reliabilityWorlds(got, 2048, prob.NewRNG(47), nil)
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("concurrent worlds run diverged: %v != %v", got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMaskedWorldsFullMaskMatchesUnmasked checks the masked variant
// with an all-live mask is bit-identical to the unmasked kernel: the
// mask test is the only control-flow difference, so the RNG streams
// coincide.
func TestMaskedWorldsFullMaskMatchesUnmasked(t *testing.T) {
	plan := Compile(diamondGraph())
	full := make([]int64, plan.NumNodes())
	plan.reliabilityCountsWorlds(full, 32, prob.NewRNG(53), nil)
	mask := make([]bool, plan.NumNodes())
	for i := range mask {
		mask[i] = true
	}
	masked := make([]int64, plan.NumNodes())
	plan.reliabilityCountsMaskedWorlds(masked, mask, 32, prob.NewRNG(53), nil)
	for i := range full {
		if full[i] != masked[i] {
			t.Fatalf("node %d: masked count %d != unmasked %d", i, masked[i], full[i])
		}
	}
}

// TestMaskedWorldsActiveAnswersExact restricts the race to a subset of
// answers and checks the live answers' estimates still match exact
// reliability — the correctness contract elimination relies on.
func TestMaskedWorldsActiveAnswersExact(t *testing.T) {
	const trials = 128000
	const z = 5.0
	qg := diamondGraph()
	exact := exactReliability(qg)
	plan := Compile(qg)
	mask := make([]bool, plan.NumNodes())
	active := []int{0, 1} // keep answers u and v, drop b
	plan.ActiveMask(active, mask)
	counts := make([]int64, plan.NumNodes())
	words := WorldWords(trials)
	plan.reliabilityCountsMaskedWorlds(counts, mask, words, prob.NewRNG(59), nil)
	total := float64(words * WordSize)
	for _, i := range active {
		got := float64(counts[plan.AnswerNode(i)]) / total
		sigma := math.Sqrt(exact[i] * (1 - exact[i]) / total)
		if math.Abs(got-exact[i]) > z*sigma+1e-12 {
			t.Errorf("active answer %d: masked worlds estimate %v vs exact %v (σ=%v)", i, got, exact[i], sigma)
		}
	}
}

// TestMaskedWorldsDeadSource covers the degenerate race state: no
// active answer reachable means trials are accounted but nothing runs.
func TestMaskedWorldsDeadSource(t *testing.T) {
	plan := Compile(diamondGraph())
	mask := make([]bool, plan.NumNodes()) // all dead
	counts := make([]int64, plan.NumNodes())
	var ops SimOps
	rng := prob.NewRNG(61)
	before := rng.State()
	plan.reliabilityCountsMaskedWorlds(counts, mask, 5, rng, &ops)
	if ops.Trials != 5*WordSize {
		t.Errorf("Trials = %d, want %d", ops.Trials, 5*WordSize)
	}
	if rng.State() != before {
		t.Error("dead-source run consumed RNG")
	}
	for i, c := range counts {
		if c != 0 {
			t.Errorf("node %d counted %d with dead source", i, c)
		}
	}
}

// TestWorldWords pins the rounding rule.
func TestWorldWords(t *testing.T) {
	for _, tc := range []struct{ trials, want int }{
		{0, 0}, {-5, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {10000, 157},
	} {
		if got := WorldWords(tc.trials); got != tc.want {
			t.Errorf("WorldWords(%d) = %d, want %d", tc.trials, got, tc.want)
		}
	}
}

// TestWorldsEpochWraparound forces the world-trial stamp past its reset
// threshold and checks estimates stay sane.
func TestWorldsEpochWraparound(t *testing.T) {
	plan := Compile(chainGraph())
	sc := plan.getScratch()
	sc.worlds(plan).epoch = math.MaxInt32 - 10
	plan.putScratch(sc)
	scores := make([]float64, plan.NumAnswers())
	plan.reliabilityWorlds(scores, 64*100, prob.NewRNG(67), nil)
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score %v outside [0,1] after epoch wrap", s)
		}
	}
}

// TestBufferLengthGuards checks every kernel entry point rejects
// mis-sized score/count/mask buffers up front with a descriptive panic
// instead of corrupting memory or failing deep in the inner loop.
func TestBufferLengthGuards(t *testing.T) {
	plan := Compile(chainGraph())
	rng := prob.NewRNG(1)
	goodMask := make([]bool, plan.NumNodes())
	for i := range goodMask {
		goodMask[i] = true
	}
	shortScores := make([]float64, plan.NumAnswers()-1)
	shortCounts := make([]int64, plan.NumNodes()-1)
	shortMask := make([]bool, plan.NumNodes()-1)
	goodCounts := make([]int64, plan.NumNodes())
	for _, tc := range []struct {
		name string
		call func()
		want string
	}{
		{"Reliability", func() { plan.Reliability(shortScores, 10, rng, nil) }, "NumAnswers"},
		{"ReliabilityWorlds", func() { plan.reliabilityWorlds(shortScores, 10, rng, nil) }, "NumAnswers"},
		{"Naive", func() { plan.Naive(shortScores, 10, rng, nil) }, "NumAnswers"},
		{"Propagation", func() { plan.Propagation(shortScores, 3, 0, false) }, "NumAnswers"},
		{"Diffusion", func() { plan.Diffusion(shortScores, 3, 0, false) }, "NumAnswers"},
		{"ReliabilityCounts", func() { plan.ReliabilityCounts(shortCounts, 10, rng, nil) }, "NumNodes"},
		{"ReliabilityCountsWorlds", func() { plan.reliabilityCountsWorlds(shortCounts, 1, rng, nil) }, "NumNodes"},
		{"ReliabilityCountsMasked", func() { plan.ReliabilityCountsMasked(shortCounts, goodMask, 10, rng, nil) }, "NumNodes"},
		{"ReliabilityCountsMaskedShortMask", func() { plan.ReliabilityCountsMasked(goodCounts, shortMask, 10, rng, nil) }, "NumNodes"},
		{"ReliabilityCountsMaskedWorlds", func() { plan.reliabilityCountsMaskedWorlds(goodCounts, shortMask, 1, rng, nil) }, "NumNodes"},
		{"ScoresFromCounts", func() { plan.ScoresFromCounts(goodCounts, 10, shortScores) }, "NumAnswers"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: mis-sized buffer did not panic", tc.name)
					return
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, tc.want) || !strings.Contains(msg, "kernel:") {
					t.Errorf("%s: panic %v is not the descriptive kernel message mentioning %s", tc.name, r, tc.want)
				}
			}()
			tc.call()
		}()
	}
	// Correct sizes must not panic.
	okScores := make([]float64, plan.NumAnswers())
	plan.Reliability(okScores, 10, rng, nil)
	plan.reliabilityWorlds(okScores, 10, rng, nil)
}

// TestWorldsReachPopcountMatchesScalarSemantics cross-checks the count
// harvest: in a certain graph (all p=q=1) every node is reached in
// every world, so counts are exactly words·64 and popcount bookkeeping
// cannot drift.
func TestWorldsReachPopcountMatchesScalarSemantics(t *testing.T) {
	g := graph.New(3, 2)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("X", "a", 1)
	u := g.AddNode("A", "u", 1)
	g.AddEdge(s, a, "r", 1)
	g.AddEdge(a, u, "r", 1)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{u})
	if err != nil {
		t.Fatal(err)
	}
	plan := Compile(qg)
	counts := make([]int64, plan.NumNodes())
	plan.reliabilityCountsWorlds(counts, 7, prob.NewRNG(71), nil)
	for i, c := range counts {
		if c != 7*WordSize {
			t.Errorf("node %d: count %d, want %d", i, c, 7*WordSize)
		}
	}
	if bits.OnesCount64(^uint64(0)) != WordSize {
		t.Fatal("WordSize drifted from the machine word")
	}
}
