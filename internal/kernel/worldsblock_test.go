package kernel

import (
	"math"
	"strings"
	"sync"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

// TestXRNGSeedMatchesProbRNG pins the kernel-local seeder to
// prob.RNG.Seed: the lane streams borrowBlockRNG derives must be the
// same xoshiro sequences prob.NewRNG would produce from the same seed,
// or the block kernel would quietly fork the repo's single RNG
// discipline.
func TestXRNGSeedMatchesProbRNG(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeefcafe} {
		ref := prob.NewRNG(seed)
		var x xrng
		x.seed(seed)
		for i := 0; i < 200; i++ {
			if got, want := x.nextWord(), ref.Uint64(); got != want {
				t.Fatalf("seed %#x draw %d: %#x != %#x", seed, i, got, want)
			}
		}
	}
}

// TestBlockRNGLaneStreams pins borrowBlockRNG's derivation: exactly one
// draw from the caller's stream, and lane l continues the stream
// prob.StreamSeed(root, l) — the same per-shard scheme the parallel
// Monte Carlo uses, so lane independence rests on the same argument.
func TestBlockRNGLaneStreams(t *testing.T) {
	rng := prob.NewRNG(9)
	ref := prob.NewRNG(9)
	root := ref.Uint64()
	br := borrowBlockRNG(rng)
	if rng.State() != ref.State() {
		t.Fatal("borrowBlockRNG must advance the caller by exactly one draw")
	}
	for l, lane := range []*xrng{&br.a, &br.b, &br.c, &br.d} {
		want := prob.NewRNG(prob.StreamSeed(root, uint64(l)))
		for i := 0; i < 50; i++ {
			if got := lane.nextWord(); got != want.Uint64() {
				t.Fatalf("lane %d draw %d diverged from StreamSeed(root, %d) stream", l, i, l)
			}
		}
	}
}

// TestBernoulliMaskBlockPerLaneFrequency checks each of the 256 lane
// bits of the block sampler is Bernoulli(tb·2⁻⁵³) within binomial
// confidence bounds — the per-world marginal the block kernel rests on,
// mirrored from TestBernoulliMaskPerBitFrequency.
func TestBernoulliMaskBlockPerLaneFrequency(t *testing.T) {
	const n = 20000
	// z = 5 per bit: 256 bits × 4 probabilities ≈ 1e3 checks, union
	// failure ~6e-4, and the seed is fixed anyway.
	const z = 5.0
	for _, p := range []float64{0.01, 0.3, 0.5, 0.97} {
		tb := coinBits(p)
		pEff := float64(tb) * 0x1p-53
		rng := prob.NewRNG(7)
		br := borrowBlockRNG(rng)
		var perBit [BlockSize]int
		var m blockMask
		for i := 0; i < n; i++ {
			br.bernoulliMaskBlock(tb, &m)
			for l := 0; l < BlockWords; l++ {
				for b := 0; b < WordSize; b++ {
					if m[l]&(1<<uint(b)) != 0 {
						perBit[l*WordSize+b]++
					}
				}
			}
		}
		bound := z * math.Sqrt(pEff*(1-pEff)/n)
		for b := 0; b < BlockSize; b++ {
			freq := float64(perBit[b]) / n
			if math.Abs(freq-pEff) > bound {
				t.Errorf("p=%v lane bit %d: frequency %v deviates from %v by more than %v", p, b, freq, pEff, bound)
			}
		}
	}
}

// TestBernoulliMaskBlockIndependence smoke-tests pairwise independence
// both WITHIN lanes (adjacent bits of one word, as in the 64-bit test)
// and ACROSS lanes (the same bit position in adjacent lanes). The
// cross-lane pairs are the new surface: each lane draws from its own
// derived stream, so correlated streams — e.g. a bad StreamSeed — would
// show up exactly there.
func TestBernoulliMaskBlockIndependence(t *testing.T) {
	const n = 20000
	const z = 5.0
	for _, p := range []float64{0.3, 0.5, 0.97} {
		tb := coinBits(p)
		pEff := float64(tb) * 0x1p-53
		rng := prob.NewRNG(11)
		br := borrowBlockRNG(rng)
		var jointAdj [BlockWords][WordSize - 1]int  // lane l bits (b, b+1)
		var jointLane [BlockWords - 1][WordSize]int // bit b in lanes (l, l+1)
		var m blockMask
		for i := 0; i < n; i++ {
			br.bernoulliMaskBlock(tb, &m)
			for l := 0; l < BlockWords; l++ {
				for b := 0; b < WordSize-1; b++ {
					if m[l]&(1<<uint(b)) != 0 && m[l]&(1<<uint(b+1)) != 0 {
						jointAdj[l][b]++
					}
				}
			}
			for l := 0; l < BlockWords-1; l++ {
				for b := 0; b < WordSize; b++ {
					bit := uint64(1) << uint(b)
					if m[l]&bit != 0 && m[l+1]&bit != 0 {
						jointLane[l][b]++
					}
				}
			}
		}
		v := pEff * (1 - pEff)
		p2 := pEff * pEff
		bound := z * math.Sqrt(p2*(1-p2)/n) / v
		for l := 0; l < BlockWords; l++ {
			for b := 0; b < WordSize-1; b++ {
				corr := (float64(jointAdj[l][b])/n - p2) / v
				if math.Abs(corr) > bound {
					t.Errorf("p=%v lane %d bits (%d,%d): correlation %v exceeds %v", p, l, b, b+1, corr, bound)
				}
			}
		}
		for l := 0; l < BlockWords-1; l++ {
			for b := 0; b < WordSize; b++ {
				corr := (float64(jointLane[l][b])/n - p2) / v
				if math.Abs(corr) > bound {
					t.Errorf("p=%v lanes (%d,%d) bit %d: cross-lane correlation %v exceeds %v", p, l, l+1, b, corr, bound)
				}
			}
		}
	}
}

// TestWorldsBlockMatchesExact checks the block estimator against
// brute-force possible-world enumeration on small graphs, the same
// contract TestWorldsMatchesExact pins for the 64-bit kernel. 128000
// trials is 2000 words = 500 whole blocks, so only the wide path runs.
func TestWorldsBlockMatchesExact(t *testing.T) {
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
		plan.reliabilityWorldsBlock(scores, trials, prob.NewRNG(17), nil)
		for i := range scores {
			sigma := math.Sqrt(exact[i] * (1 - exact[i]) / trials)
			if math.Abs(scores[i]-exact[i]) > z*sigma+1e-12 {
				t.Errorf("%s answer %d: block estimate %v vs exact %v (> %v·σ, σ=%v)",
					tc.name, i, scores[i], exact[i], z, sigma)
			}
		}
	}
}

// TestWorldsBlockMatchesScalarStatistically is the two-sample z-test
// between the scalar traversal kernel and the block kernel — the
// statistical (not bitwise) equivalence contract of the variant.
func TestWorldsBlockMatchesScalarStatistically(t *testing.T) {
	const trials = 128000
	const z = 5.0
	qg := diamondGraph()
	plan := Compile(qg)
	scalar := make([]float64, plan.NumAnswers())
	block := make([]float64, plan.NumAnswers())
	plan.Reliability(scalar, trials, prob.NewRNG(23), nil)
	plan.reliabilityWorldsBlock(block, trials, prob.NewRNG(29), nil)
	for i := range scalar {
		v := scalar[i] * (1 - scalar[i])
		bound := z*math.Sqrt(2*v/trials) + 1e-12
		if math.Abs(scalar[i]-block[i]) > bound {
			t.Errorf("answer %d: scalar %v vs block %v differ by more than %v", i, scalar[i], block[i], bound)
		}
	}
}

// TestWorldsBlockChiSquareAgainstScalar bins per-batch reach counts of
// the answer node from both estimators — 256 scalar trials a batch vs
// one 256-world block a batch, so both sides are Binomial(256, p) under
// the null — and runs the same chi-square homogeneity test the 64-bit
// kernel carries.
func TestWorldsBlockChiSquareAgainstScalar(t *testing.T) {
	qg := chainGraph()
	plan := Compile(qg)
	answer := plan.AnswerNode(0)
	const batches = 2000

	scalarCounts := make([]int, batches)
	rng := prob.NewRNG(31)
	counts := make([]int64, plan.NumNodes())
	for b := 0; b < batches; b++ {
		for i := range counts {
			counts[i] = 0
		}
		plan.ReliabilityCounts(counts, nil, BlockSize, rng, nil)
		scalarCounts[b] = int(counts[answer])
	}
	blockCounts := make([]int, batches)
	wrng := prob.NewRNG(37)
	for b := 0; b < batches; b++ {
		for i := range counts {
			counts[i] = 0
		}
		plan.reliabilityCountsWorldsBlock(counts, BlockWords, wrng, nil)
		blockCounts[b] = int(counts[answer])
	}

	// Pool into coarse bins around the scalar mean so every expected
	// cell count is comfortably large (same binning as the 64-bit test).
	mean := 0.0
	for _, c := range scalarCounts {
		mean += float64(c)
	}
	mean /= batches
	sd := math.Sqrt(mean * (1 - mean/BlockSize))
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
		obsB[bin(blockCounts[i])]++
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
	// k-1 = 3 degrees of freedom; 27.9 is the 1e-5 tail.
	if chi2 > 27.9 {
		t.Errorf("chi-square %v exceeds the 1e-5 critical value 27.9 (scalar %v vs block %v)", chi2, obsA, obsB)
	}
}

// TestWorldsBlockRemainderWords exercises the split path: 7 words is
// one whole block plus 3 remainder words on the single-word kernel.
// The call must account exactly 7·64 trials, keep every count within
// range, and be a deterministic function of (plan, seed, words).
func TestWorldsBlockRemainderWords(t *testing.T) {
	plan := Compile(diamondGraph())
	first := make([]int64, plan.NumNodes())
	var ops SimOps
	plan.reliabilityCountsWorldsBlock(first, 7, prob.NewRNG(73), &ops)
	if ops.Trials != 7*WordSize {
		t.Errorf("Trials = %d, want %d", ops.Trials, 7*WordSize)
	}
	for i, c := range first {
		if c < 0 || c > 7*WordSize {
			t.Errorf("node %d: count %d outside [0, %d]", i, c, 7*WordSize)
		}
	}
	second := make([]int64, plan.NumNodes())
	plan.reliabilityCountsWorldsBlock(second, 7, prob.NewRNG(73), nil)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("node %d: repeat run count %d != first %d", i, second[i], first[i])
		}
	}
}

// TestWorldsBlockSimOps pins the block accounting: Trials counts worlds
// (2 blocks + 2 remainder words = 640), NodeVisits counts per-world
// reach events, and CoinFlips counts element decisions per sampled MASK
// — one per block in the wide phase, one per word in the remainder.
func TestWorldsBlockSimOps(t *testing.T) {
	plan := Compile(diamondGraph())
	counts := make([]int64, plan.NumNodes())
	var ops SimOps
	plan.reliabilityCountsWorldsBlock(counts, 10, prob.NewRNG(43), &ops)
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
	// (1 source + 6 edges + 4 nodes) per sampled mask and at least 1
	// (the source) — per block or remainder word, 4 mask units in all.
	if ops.CoinFlips < 4 || ops.CoinFlips > 11*4 {
		t.Errorf("CoinFlips = %d outside the per-mask decision range [4, 44]", ops.CoinFlips)
	}
	// A second identical run doubles every counter.
	first := ops
	plan.reliabilityCountsWorldsBlock(counts, 10, prob.NewRNG(43), &ops)
	if ops.Trials != 2*first.Trials || ops.CoinFlips != 2*first.CoinFlips || ops.NodeVisits != 2*first.NodeVisits {
		t.Errorf("ops did not accumulate: %+v vs first %+v", ops, first)
	}
}

// TestWorldsBlockDeterministicAndConcurrent runs the block kernel from
// many goroutines on one shared plan: identical seeds must give
// identical scores, and the race detector checks read-only plan sharing
// (each goroutine borrows its own pooled Scratch and blockScratch).
func TestWorldsBlockDeterministicAndConcurrent(t *testing.T) {
	plan := Compile(diamondGraph())
	want := make([]float64, plan.NumAnswers())
	plan.reliabilityWorldsBlock(want, 2048, prob.NewRNG(47), nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, plan.NumAnswers())
			for i := 0; i < 4; i++ {
				plan.reliabilityWorldsBlock(got, 2048, prob.NewRNG(47), nil)
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("concurrent block run diverged: %v != %v", got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMaskedWorldsBlockFullMaskMatchesUnmasked checks the masked block
// variant with an all-live mask is bit-identical to the unmasked block
// kernel: the mask test is the only control-flow difference, so the
// derived lane streams coincide.
func TestMaskedWorldsBlockFullMaskMatchesUnmasked(t *testing.T) {
	plan := Compile(diamondGraph())
	full := make([]int64, plan.NumNodes())
	plan.reliabilityCountsWorldsBlock(full, 8, prob.NewRNG(53), nil)
	mask := make([]bool, plan.NumNodes())
	for i := range mask {
		mask[i] = true
	}
	masked := make([]int64, plan.NumNodes())
	plan.reliabilityCountsMaskedWorldsBlock(masked, mask, 8, prob.NewRNG(53), nil)
	for i := range full {
		if full[i] != masked[i] {
			t.Fatalf("node %d: masked count %d != unmasked %d", i, masked[i], full[i])
		}
	}
}

// TestMaskedWorldsBlockActiveAnswersExact restricts the shared-sample
// race to a subset of answers and checks the live answers' estimates
// still match exact reliability — the correctness contract the racer's
// elimination relies on.
func TestMaskedWorldsBlockActiveAnswersExact(t *testing.T) {
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
	plan.reliabilityCountsMaskedWorldsBlock(counts, mask, words, prob.NewRNG(59), nil)
	total := float64(words * WordSize)
	for _, i := range active {
		got := float64(counts[plan.AnswerNode(i)]) / total
		sigma := math.Sqrt(exact[i] * (1 - exact[i]) / total)
		if math.Abs(got-exact[i]) > z*sigma+1e-12 {
			t.Errorf("active answer %d: masked block estimate %v vs exact %v (σ=%v)", i, got, exact[i], sigma)
		}
	}
}

// TestMaskedWorldsBlockDeadSource covers the degenerate race state: no
// active answer reachable means trials are accounted but nothing runs
// and the RNG is untouched (the root draw happens only when a traversal
// actually starts).
func TestMaskedWorldsBlockDeadSource(t *testing.T) {
	plan := Compile(diamondGraph())
	mask := make([]bool, plan.NumNodes()) // all dead
	counts := make([]int64, plan.NumNodes())
	var ops SimOps
	rng := prob.NewRNG(61)
	before := rng.State()
	plan.reliabilityCountsMaskedWorldsBlock(counts, mask, 5, rng, &ops)
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

// TestWorldsBlockCertainGraphCounts cross-checks the block harvest on a
// certain graph: every node reached in every world, so counts are
// exactly words·64. Unlike the 64-bit kernel — which consumes no RNG at
// all on certain graphs — the block phase always pays its single root
// draw to derive the lane streams; that one-draw cost is part of the
// variant's documented stream semantics, so pin it.
func TestWorldsBlockCertainGraphCounts(t *testing.T) {
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
	rng := prob.NewRNG(71)
	ref := prob.NewRNG(71)
	ref.Uint64() // the block phase's root draw
	plan.reliabilityCountsWorldsBlock(counts, 7, rng, nil)
	for i, c := range counts {
		if c != 7*WordSize {
			t.Errorf("node %d: count %d, want %d", i, c, 7*WordSize)
		}
	}
	if rng.State() != ref.State() {
		t.Error("certain graph should consume exactly the one root draw")
	}
}

// TestWorldsBlockEpochWraparound forces the block-trial stamp past its
// reset threshold and checks estimates stay sane.
func TestWorldsBlockEpochWraparound(t *testing.T) {
	plan := Compile(chainGraph())
	sc := plan.getScratch()
	sc.blocks(plan).epoch = math.MaxInt32 - 10
	plan.putScratch(sc)
	scores := make([]float64, plan.NumAnswers())
	plan.reliabilityWorldsBlock(scores, 64*100, prob.NewRNG(67), nil)
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score %v outside [0,1] after epoch wrap", s)
		}
	}
}

// TestWorldsBlockBufferGuards checks the block session rejects
// mis-sized buffers up front like the rest of the kernel.
func TestWorldsBlockBufferGuards(t *testing.T) {
	plan := Compile(chainGraph())
	rng := prob.NewRNG(1)
	shortScores := make([]float64, plan.NumAnswers()-1)
	shortCounts := make([]int64, plan.NumNodes()-1)
	shortMask := make([]bool, plan.NumNodes()-1)
	goodCounts := make([]int64, plan.NumNodes())
	for _, tc := range []struct {
		name string
		call func()
		want string
	}{
		{"ScoresFromCounts", func() { plan.ScoresFromCounts(goodCounts, 64, shortScores) }, "NumAnswers"},
		{"Counts", func() { plan.NewWorldsBlockSession(rng).Counts(shortCounts, nil, 1, nil) }, "NumNodes"},
		{"Counts/masked", func() { plan.NewWorldsBlockSession(rng).Counts(goodCounts, shortMask, 1, nil) }, "NumNodes"},
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
	plan.NewWorldsBlockSession(rng).Counts(goodCounts, nil, 1, nil)
	plan.ScoresFromCounts(goodCounts, 64, make([]float64, plan.NumAnswers()))
}
