package kernel

import "biorank/internal/prob"

// This file holds the compiled Monte Carlo estimators of Algorithm 3.1:
// the lazy-DFS "traversal" simulation and the all-coins "naive"
// baseline. Both replicate the reference implementations' RNG
// consumption and operation counters exactly (see the package comment),
// so their scores are bit-identical for a fixed seed.

// SimOps counts the work a simulation performs, in machine-independent
// units (rank.OpStats is an alias). Unlike wall-clock time, the counters
// are fully determined by (graph, trials, seed, workers), which makes
// them suitable for efficiency assertions in tests and for capacity
// planning. For adaptive simulations Trials additionally reports how
// many trials the stopping rule actually consumed.
type SimOps struct {
	Trials     int64 // simulation trials executed
	NodeVisits int64 // nodes found present and expanded, summed over trials
	CoinFlips  int64 // Bernoulli coin flips drawn, summed over trials
}

// Total returns the combined operation count, the deterministic analogue
// of elapsed time for comparing simulation strategies.
func (s SimOps) Total() int64 { return s.NodeVisits + s.CoinFlips }

// Add accumulates o into s.
func (s *SimOps) Add(o SimOps) {
	s.Trials += o.Trials
	s.NodeVisits += o.NodeVisits
	s.CoinFlips += o.CoinFlips
}

// Reliability runs trials traversal simulations with rng and writes
// per-answer reliability estimates into scores (length NumAnswers).
// Steady state allocates nothing: all working memory comes from the
// plan's scratch pool. ops, when non-nil, accumulates operation
// counters.
func (p *Plan) Reliability(scores []float64, trials int, rng *prob.RNG, ops *SimOps) {
	p.checkScores(scores)
	sc := p.getScratch()
	sc.resetCounts()
	p.traverse(sc, nil, trials, rng, ops)
	for i, a := range p.answers {
		scores[i] = float64(sc.nodes[a].count) / float64(trials)
	}
	p.putScratch(sc)
}

// ReliabilityCounts runs trials traversal simulations and ADDS per-node
// reach counts into counts (length NumNodes). It exists for callers
// that aggregate across batches (adaptive stopping) or shards (parallel
// workers).
//
// mask, when non-nil, is an ActiveMask (length NumNodes): out-edges
// whose head is outside it are skipped without flipping their coin, so
// simulation work scales with the surviving candidates' closure rather
// than the full plan (the top-k racer's elimination feedback). When the
// source itself is dead (it cannot reach any active answer) the trials
// are accounted but no simulation runs — every active count stays 0,
// which is the exact answer.
func (p *Plan) ReliabilityCounts(counts []int64, mask []bool, trials int, rng *prob.RNG, ops *SimOps) {
	p.checkCounts(counts)
	if mask != nil {
		p.checkMask(mask)
		if !mask[p.source] {
			if ops != nil {
				ops.Trials += int64(trials)
			}
			return
		}
	}
	sc := p.getScratch()
	sc.resetCounts()
	p.traverse(sc, mask, trials, rng, ops)
	for i := 0; i < p.n; i++ {
		counts[i] += sc.nodes[i].count
	}
	p.putScratch(sc)
}

// traverse is the compiled inner loop of Algorithm 3.1. Coins are
// flipped lazily, only for elements the search actually reaches;
// elements with p<=0 or p>=1 branch without touching the RNG (the
// certainty fast path), exactly like prob.RNG.Bernoulli. live, when
// non-nil, is a live-node filter: dead targets are skipped before their
// edge coin is flipped, and within the live subgraph the control flow,
// RNG consumption and counters are those of the unmasked loop. Counter
// collection is specialized away when ops and live are both nil —
// plain ranking does not pay for bookkeeping it never reads.
func (p *Plan) traverse(sc *Scratch, live []bool, trials int, rng *prob.RNG, ops *SimOps) {
	if ops == nil && live == nil {
		p.traverseFast(sc, trials, rng)
		return
	}
	sc.nextEpoch(trials)
	nodes := sc.nodes
	// A node is pushed at most once per trial (the stamp guards the
	// push), so the fixed stack of n slots never overflows and the loop
	// can index it directly instead of appending.
	stack := sc.stack
	edges := p.edges
	src := p.source
	srcPB := nodes[src].pbits
	epoch := sc.epoch
	var flips, visits int64
	xr := borrowRNG(rng)

	for t := 0; t < trials; t++ {
		epoch++
		stamp := epoch
		nodes[src].stamp = stamp
		flips++
		if srcPB != coinCertain {
			if srcPB == 0 || xr.nextBits() >= srcPB {
				continue
			}
		}
		nodes[src].count++
		visits++
		stack[0] = src
		top := 1
		for top > 0 {
			top--
			x := stack[top]
			for i, end := int(nodes[x].row), int(nodes[x].end); i < end; i++ {
				e := &edges[i]
				nc := &nodes[e.to]
				if nc.stamp == stamp {
					continue // already decided this trial
				}
				if live != nil && !live[e.to] {
					continue // dead: cannot reach any active answer
				}
				flips++
				if e.qbits != coinCertain {
					if e.qbits == 0 || xr.nextBits() >= e.qbits {
						continue // edge failed
					}
				}
				nc.stamp = stamp
				flips++
				if nc.pbits != coinCertain {
					if nc.pbits == 0 || xr.nextBits() >= nc.pbits {
						continue // node failed
					}
				}
				nc.count++
				visits++
				if nc.row != nc.end {
					stack[top] = e.to
					top++
				}
			}
		}
	}
	xr.release(rng)
	sc.epoch = epoch
	if ops != nil {
		ops.Trials += int64(trials)
		ops.NodeVisits += visits
		ops.CoinFlips += flips
	}
}

// traverseFast is traverse without operation counters: the identical
// control flow and RNG stream, minus three counter increments per step.
func (p *Plan) traverseFast(sc *Scratch, trials int, rng *prob.RNG) {
	sc.nextEpoch(trials)
	nodes := sc.nodes
	stack := sc.stack
	edges := p.edges
	src := p.source
	srcPB := nodes[src].pbits
	epoch := sc.epoch
	xr := borrowRNG(rng)

	for t := 0; t < trials; t++ {
		epoch++
		stamp := epoch
		nodes[src].stamp = stamp
		if srcPB != coinCertain {
			if srcPB == 0 || xr.nextBits() >= srcPB {
				continue
			}
		}
		nodes[src].count++
		stack[0] = src
		top := 1
		for top > 0 {
			top--
			x := stack[top]
			for i, end := int(nodes[x].row), int(nodes[x].end); i < end; i++ {
				e := &edges[i]
				nc := &nodes[e.to]
				if nc.stamp == stamp {
					continue
				}
				if e.qbits != coinCertain {
					if e.qbits == 0 || xr.nextBits() >= e.qbits {
						continue
					}
				}
				nc.stamp = stamp
				if nc.pbits != coinCertain {
					if nc.pbits == 0 || xr.nextBits() >= nc.pbits {
						continue
					}
				}
				nc.count++
				if nc.row != nc.end {
					stack[top] = e.to
					top++
				}
			}
		}
	}
	xr.release(rng)
	sc.epoch = epoch
}

// Naive runs the baseline estimator: every node and edge coin is
// flipped up front (nodes in ID order, then edges in ID order — the
// reference stream order), then connectivity is tested by DFS. scores
// must have length NumAnswers.
func (p *Plan) Naive(scores []float64, trials int, rng *prob.RNG, ops *SimOps) {
	p.checkScores(scores)
	sc := p.getScratch()
	sc.nextEpoch(trials)
	sc.resetCounts()
	nodes := sc.nodes
	nodeUp, edgeUp := sc.nodeUp, sc.edgeUp
	stack := sc.stack
	edges, edgeID, nodePBits, qBitsByID := p.edges, p.edgeID, p.nodePBits, p.qBitsByID
	src := p.source
	epoch := sc.epoch
	var flips, visits int64
	xr := borrowRNG(rng)

	for t := 0; t < trials; t++ {
		epoch++
		stamp := epoch
		flips += int64(p.n) + int64(p.m)
		for i := range nodeUp {
			pb := nodePBits[i]
			nodeUp[i] = pb == coinCertain || (pb != 0 && xr.nextBits() < pb)
		}
		for e := range edgeUp {
			qb := qBitsByID[e]
			edgeUp[e] = qb == coinCertain || (qb != 0 && xr.nextBits() < qb)
		}
		if !nodeUp[src] {
			continue
		}
		stack[0] = src
		top := 1
		nodes[src].stamp = stamp
		nodes[src].count++
		visits++
		for top > 0 {
			top--
			x := stack[top]
			for i, end := nodes[x].row, nodes[x].end; i < end; i++ {
				if !edgeUp[edgeID[i]] {
					continue
				}
				to := edges[i].to
				nc := &nodes[to]
				if nc.stamp == stamp || !nodeUp[to] {
					continue
				}
				nc.stamp = stamp
				nc.count++
				visits++
				stack[top] = to
				top++
			}
		}
	}
	xr.release(rng)
	sc.epoch = epoch
	if ops != nil {
		ops.Trials += int64(trials)
		ops.NodeVisits += visits
		ops.CoinFlips += flips
	}
	for i, a := range p.answers {
		scores[i] = float64(nodes[a].count) / float64(trials)
	}
	p.putScratch(sc)
}
