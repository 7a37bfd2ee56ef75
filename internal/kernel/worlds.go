package kernel

import (
	"math/bits"

	"biorank/internal/prob"
)

// This file holds the bit-parallel Monte Carlo estimator of Algorithm
// 3.1: instead of simulating one possible world per trial, every node
// carries a 64-bit reach mask and every element a 64-bit presence mask,
// so one pass over the compiled CSR plan evaluates 64 independent
// worlds with bitwise AND/OR. Per-world coins come from the
// binary-expansion trick (bernoulliMask): composing at most 53 random
// words following the bits of the compiled coin threshold yields, in
// every lane, a Bernoulli draw whose success probability is EXACTLY the
// scalar kernel's ceil(p·2⁵³)·2⁻⁵³ — the two estimators sample the same
// distribution over possible worlds.
//
// What is NOT preserved is the RNG stream: a mask consumes a variable
// number of whole 64-bit words where the scalar coin consumes one
// 53-bit draw, so scores differ from the scalar kernel's for the same
// seed the way two scalar runs with different seeds differ. The
// bit-parallel path is therefore a different estimator stream,
// statistically — not bitwise — equivalent to the scalar one,
// and the equivalence is pinned by property tests (frequency bounds,
// chi-square against the scalar kernel, and the exact evaluator on
// small graphs) instead of golden scores. This single-word loop is
// reached through WorldsBlockSession, which runs it for the words of a
// call that do not fill a whole block.
//
// SimOps semantics under bit parallelism: Trials counts WORLDS (64 per
// word-trial), NodeVisits counts node reach events summed over worlds
// (the popcount of every reach mask), and CoinFlips counts element
// decisions PER SAMPLED WORD — one per presence mask sampled, however
// many worlds it covers or random words it consumed. Op counts are thus
// comparable per world for Trials/NodeVisits, while CoinFlips reflects
// the ~64-fold coin amortization that makes the estimator fast.

// WordSize is the number of possible worlds one machine word simulates.
const WordSize = 64

// WorldWords returns the number of 64-world word-trials needed to cover
// at least trials simulations — the rounding rule every bit-parallel
// caller uses (a fractional word costs the same as a full one).
func WorldWords(trials int) int {
	if trials <= 0 {
		return 0
	}
	return (trials + WordSize - 1) / WordSize
}

// bernoulliMask draws 64 independent Bernoulli coins, one per bit, each
// succeeding with probability tb·2⁻⁵³ — exactly the scalar coin's
// P(nextBits() < tb). It walks the binary expansion of the threshold
// from the most significant bit down, drawing one random word per bit
// position: a lane whose uniform bit differs from the threshold's bit
// at the first divergent position is decided (below ⇒ success, above ⇒
// failure), and the walk stops as soon as every lane is decided.
// Undecided lanes after all 53 bits have u == tb, which the strict
// comparison rejects. Expected cost is ~log₂(64)+2 ≈ 8 words per mask
// regardless of p — the early exit fires once the undecided set, which
// halves per word, empties. Callers handle tb == 0 and coinCertain.
func (x *xrng) bernoulliMask(tb uint64) uint64 {
	var res uint64
	undecided := ^uint64(0)
	for i := 52; i >= 0; i-- {
		r := x.nextWord()
		if tb&(1<<uint(i)) != 0 {
			res |= undecided &^ r
			undecided &= r
		} else {
			undecided &^= r
		}
		if undecided == 0 {
			break
		}
	}
	return res
}

// worldNode is the per-node state of one 64-world trial: the sampled
// presence mask and the set of worlds in which the node is reached AND
// present. stamp validates both against the current word-trial.
type worldNode struct {
	stamp   int32
	present uint64
	reach   uint64
}

// worldScratch is the bit-parallel working set, allocated lazily on the
// first worlds call so scalar-only workloads never pay for it. It lives
// inside the plan's pooled Scratch and is reused across calls.
type worldScratch struct {
	epoch int32
	node  []worldNode // len n
	inq   []int32     // worklist membership stamp, len n
	// Per-CSR-position edge masks, sampled at most once per word-trial:
	// a node can be re-expanded within one word-trial when new worlds
	// reach it, and the re-scan must see the same coins.
	estamp []int32 // len m
	emask  []uint64
	// touched lists the nodes stamped this word-trial. The harvest used
	// to sweep all n node cells per word-trial — O(n·words) even when a
	// low-reach trial touched a handful of nodes, which dominated on
	// large sparse-reach graphs where the traversal itself is O(touched).
	// Recording first touches makes the harvest O(touched) too.
	touched []int32
}

// worlds returns the scratch's bit-parallel working set, allocating it
// on first use.
func (s *Scratch) worlds(p *Plan) *worldScratch {
	if s.ws == nil {
		s.ws = &worldScratch{
			node:    make([]worldNode, p.n),
			inq:     make([]int32, p.n),
			estamp:  make([]int32, p.m),
			emask:   make([]uint64, p.m),
			touched: make([]int32, 0, p.n),
		}
	}
	return s.ws
}

// nextEpoch advances the world-trial stamp, clearing all stamps on the
// (rare) int32 wraparound so stale stamps can never alias.
func (ws *worldScratch) nextEpoch() int32 {
	if ws.epoch+1 <= 0 {
		for i := range ws.node {
			ws.node[i].stamp = 0
		}
		for i := range ws.inq {
			ws.inq[i] = 0
		}
		for i := range ws.estamp {
			ws.estamp[i] = 0
		}
		ws.epoch = 0
	}
	ws.epoch++
	return ws.epoch
}

// traverseWorlds is the bit-parallel inner loop: a monotone frontier
// fixpoint over the CSR plan, 64 worlds per pass. Reach masks only ever
// grow, so a node re-enters the worklist when (and only when) new
// worlds reach it, and the stored per-word element masks make re-scans
// see the same coins. live, when non-nil, restricts the traversal to
// the active-subset closure exactly like traverse.
func (p *Plan) traverseWorlds(sc *Scratch, live []bool, words int, rng *prob.RNG, ops *SimOps) {
	ws := sc.worlds(p)
	wn := ws.node
	inq := ws.inq
	nodes := sc.nodes
	stack := sc.stack
	edges := p.edges
	src := p.source
	srcPB := p.nodePBits[src]
	var flips, visits int64
	xr := borrowRNG(rng)

	for w := 0; w < words; w++ {
		cur := ws.nextEpoch()
		touched := ws.touched[:0]
		srcMask := ^uint64(0)
		if srcPB != coinCertain {
			flips++
			if srcPB == 0 {
				srcMask = 0
			} else {
				srcMask = xr.bernoulliMask(srcPB)
			}
		}
		if srcMask == 0 {
			continue // source absent in all 64 worlds
		}
		wn[src] = worldNode{stamp: cur, present: srcMask, reach: srcMask}
		touched = append(touched, src)
		stack[0] = src
		inq[src] = cur
		top := 1
		for top > 0 {
			top--
			x := stack[top]
			inq[x] = cur - 1 // popped; may re-enter on new worlds
			rx := wn[x].reach
			for i, end := int(nodes[x].row), int(nodes[x].end); i < end; i++ {
				e := &edges[i]
				to := e.to
				if live != nil && !live[to] {
					continue // dead: cannot reach any active answer
				}
				// Edge presence, sampled once per word-trial.
				em := ^uint64(0)
				if e.qbits != coinCertain {
					if e.qbits == 0 {
						continue
					}
					if ws.estamp[i] != cur {
						ws.estamp[i] = cur
						ws.emask[i] = xr.bernoulliMask(e.qbits)
						flips++
					}
					em = ws.emask[i]
				}
				t := rx & em
				if t == 0 {
					continue // edge absent in every reached world
				}
				nc := &wn[to]
				if nc.stamp != cur {
					// First touch this word-trial: decide the node's
					// presence once for all 64 worlds.
					pb := nodes[to].pbits
					pm := ^uint64(0)
					if pb != coinCertain {
						flips++
						if pb == 0 {
							pm = 0
						} else {
							pm = xr.bernoulliMask(pb)
						}
					}
					nc.stamp = cur
					nc.present = pm
					nc.reach = 0
					touched = append(touched, to)
				}
				newBits := t & nc.present &^ nc.reach
				if newBits == 0 {
					continue
				}
				nc.reach |= newBits
				if nodes[to].row != nodes[to].end && inq[to] != cur {
					stack[top] = to
					inq[to] = cur
					top++
				}
			}
		}
		// Harvest this word-trial's reach masks into the per-node
		// counters — only the touched closure, not all n cells.
		for _, ti := range touched {
			c := int64(bits.OnesCount64(wn[ti].reach))
			nodes[ti].count += c
			visits += c
		}
		ws.touched = touched[:0]
	}
	xr.release(rng)
	if ops != nil {
		ops.Trials += int64(words) * WordSize
		ops.NodeVisits += visits
		ops.CoinFlips += flips
	}
}
