package kernel

import "biorank/internal/prob"

// One-shot wrappers over the bit-parallel kernels for the tests and
// benchmarks. The exported API is WorldsBlockSession alone; these pin
// the single-word kernel directly, and the block kernel through a fresh
// session per call.

// reliabilityWorlds runs the single-word kernel for trials rounded UP
// to whole words and writes per-answer scores.
func (p *Plan) reliabilityWorlds(scores []float64, trials int, rng *prob.RNG, ops *SimOps) {
	p.checkScores(scores)
	counts := make([]int64, p.n)
	words := WorldWords(trials)
	p.worldsCounts(counts, nil, words, rng, ops)
	p.ScoresFromCounts(counts, words*WordSize, scores)
}

// reliabilityCountsWorlds adds the single-word kernel's per-node reach
// counts over words word-trials into counts.
func (p *Plan) reliabilityCountsWorlds(counts []int64, words int, rng *prob.RNG, ops *SimOps) {
	p.worldsCounts(counts, nil, words, rng, ops)
}

// reliabilityCountsMaskedWorlds is reliabilityCountsWorlds restricted
// to an ActiveMask.
func (p *Plan) reliabilityCountsMaskedWorlds(counts []int64, mask []bool, words int, rng *prob.RNG, ops *SimOps) {
	p.checkMask(mask)
	p.worldsCounts(counts, mask, words, rng, ops)
}

func (p *Plan) worldsCounts(counts []int64, mask []bool, words int, rng *prob.RNG, ops *SimOps) {
	p.checkCounts(counts)
	if mask != nil && !mask[p.source] {
		if ops != nil {
			ops.Trials += int64(words) * WordSize
		}
		return
	}
	sc := p.getScratch()
	sc.resetCounts()
	p.traverseWorlds(sc, mask, words, rng, ops)
	for i := 0; i < p.n; i++ {
		counts[i] += sc.nodes[i].count
	}
	p.putScratch(sc)
}

// reliabilityWorldsBlock runs one block session for trials rounded UP
// to whole words and writes per-answer scores.
func (p *Plan) reliabilityWorldsBlock(scores []float64, trials int, rng *prob.RNG, ops *SimOps) {
	p.checkScores(scores)
	counts := make([]int64, p.n)
	words := WorldWords(trials)
	p.NewWorldsBlockSession(rng).Counts(counts, nil, words, ops)
	p.ScoresFromCounts(counts, words*WordSize, scores)
}

// reliabilityCountsWorldsBlock adds one block session's per-node reach
// counts over words word-trials into counts.
func (p *Plan) reliabilityCountsWorldsBlock(counts []int64, words int, rng *prob.RNG, ops *SimOps) {
	p.NewWorldsBlockSession(rng).Counts(counts, nil, words, ops)
}

// reliabilityCountsMaskedWorldsBlock is reliabilityCountsWorldsBlock
// restricted to an ActiveMask.
func (p *Plan) reliabilityCountsMaskedWorldsBlock(counts []int64, mask []bool, words int, rng *prob.RNG, ops *SimOps) {
	p.checkMask(mask)
	p.NewWorldsBlockSession(rng).Counts(counts, mask, words, ops)
}
