package kernel

import (
	"math/bits"

	"biorank/internal/prob"
)

// This file widens the bit-parallel estimator of worlds.go from one
// machine word to a SIMD-shaped block of BlockWords words: per-node
// reach and presence masks become [4]uint64, so one frontier fixpoint
// over the compiled CSR plan evaluates 256 possible worlds, and the
// per-edge/per-node overhead that dominates the 64-bit kernel — stamp
// checks, worklist pushes, bounds arithmetic, the threshold-bit walk of
// the Bernoulli sampler — is paid once per block instead of once per
// word. The lane operations are written unrolled (explicit l0..l3
// temporaries, no per-lane loops or branches on the propagation path)
// so the compiler is free to keep them in wide registers.
//
// Coin amortization across the block: bernoulliMaskBlock walks the
// binary expansion of a compiled threshold ONCE and fills all four
// lanes of words during the walk, each lane drawing from its own
// independent RNG stream (blockRNG) so the four xoshiro dependency
// chains pipeline instead of serializing — coin generation, not mask
// propagation, dominates the kernel's profile. Every lane's success
// probability is exactly the scalar coin's ceil(p·2⁵³)·2⁻⁵³, the same
// guarantee bernoulliMask gives — the walk order is shared, the
// randomness is not, so all 256 worlds stay independent.
//
// Like the 64-bit kernel, the block kernel is an explicit estimator
// variant: it consumes the RNG in yet another pattern (block-grained
// masks), so scores differ from both the scalar and the single-word
// worlds kernel for the same seed the way runs with different seeds
// differ. Statistical equivalence is pinned by the same battery the
// 64-bit path carries: per-lane frequency and independence bounds,
// chi-square agreement with the scalar kernel, and exact possible-world
// enumeration on small graphs (worldsblock_test.go). The scalar and
// 64-bit kernels remain in the tree as the reference implementations
// those tests compare against; every sampled estimator rank serves
// runs on this kernel through WorldsBlockSession, falling back to the
// single-word loop only for the remainder words of a call that is not a
// whole number of blocks.
//
// SimOps semantics match worlds.go with the mask as the unit of coin
// accounting: Trials counts WORLDS (BlockSize per block-trial),
// NodeVisits counts per-world reach events (the popcount of every
// harvested reach mask), and CoinFlips counts element decisions PER
// SAMPLED MASK — one per block-sized presence mask, however many random
// words the walk consumed. The coin amortization visible in OpStats is
// therefore ~256x for fully uncertain elements, against the scalar
// kernel's one flip per element per trial.

// BlockWords is the number of 64-world words one kernel block carries.
const BlockWords = 4

// BlockSize is the number of possible worlds one block simulates:
// BlockWords lanes of WordSize worlds.
const BlockSize = BlockWords * WordSize

// blockMask is one block-wide bitmask: lane l, bit b is world
// l·WordSize+b of the block-trial.
type blockMask [BlockWords]uint64

// blockOnes is the all-worlds mask, the block analogue of ^uint64(0).
var blockOnes = blockMask{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

// bernoulliMaskBlock draws BlockSize independent Bernoulli coins, one
// per lane bit, each succeeding with probability tb·2⁻⁵³ — exactly the
// scalar coin's P(nextBits() < tb), the guarantee bernoulliMask gives
// per word. The threshold's binary expansion is walked ONCE for the
// whole block: at each bit position every lane draws one word from its
// OWN stream, unconditionally, and the walk stops when no lane has
// undecided worlds left. A decided lane's draw is wasted work in
// expectation terms, but the unconditional form keeps the loop body
// branch-light and — because the four streams are independent — the
// four xoshiro dependency chains execute concurrently in the pipeline,
// so the per-word cost is far below the single-stream sampler's serial
// latency. Lane l's mask is a function of stream l's words alone, so
// every lane reproduces bernoulliMask's distribution exactly and all
// BlockSize worlds stay independent. Callers handle tb == 0 and
// coinCertain.
func (br *blockRNG) bernoulliMaskBlock(tb uint64, out *blockMask) {
	// Lane states live in locals for the walk (written back at the end)
	// so the inlined xoshiro steps run on SSA values instead of loading
	// and storing the receiver's fields on every draw.
	a, b, c, d := br.a, br.b, br.c, br.d
	var r0, r1, r2, r3 uint64
	u0, u1, u2, u3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	for i := 52; i >= 0; i-- {
		w0 := a.nextWord()
		w1 := b.nextWord()
		w2 := c.nextWord()
		w3 := d.nextWord()
		if tb&(1<<uint(i)) != 0 {
			r0 |= u0 &^ w0
			r1 |= u1 &^ w1
			r2 |= u2 &^ w2
			r3 |= u3 &^ w3
			u0 &= w0
			u1 &= w1
			u2 &= w2
			u3 &= w3
		} else {
			u0 &^= w0
			u1 &^= w1
			u2 &^= w2
			u3 &^= w3
		}
		if u0|u1|u2|u3 == 0 {
			break
		}
	}
	br.a, br.b, br.c, br.d = a, b, c, d
	out[0], out[1], out[2], out[3] = r0, r1, r2, r3
}

// blockNode is the per-node state of one 256-world block-trial.
type blockNode struct {
	stamp   int32
	_       int32
	present blockMask
	reach   blockMask
}

// blockScratch is the block-parallel working set, allocated lazily on
// the first block call so narrower workloads never pay for it. It lives
// inside the plan's pooled Scratch alongside the 64-bit worldScratch
// (the remainder path) and is reused across calls.
type blockScratch struct {
	epoch int32
	node  []blockNode // len n
	inq   []int32     // worklist membership stamp, len n
	// Per-CSR-position edge masks, sampled at most once per block-trial
	// (re-scans must see the same coins; see worldScratch).
	estamp []int32 // len m
	emask  []blockMask
	// touched lists the nodes stamped this block-trial, so the harvest
	// visits exactly the frontier's closure instead of sweeping all n
	// node cells (see the traverseWorlds harvest note).
	touched []int32
}

// blocks returns the scratch's block-parallel working set, allocating
// it on first use.
func (s *Scratch) blocks(p *Plan) *blockScratch {
	if s.bs == nil {
		s.bs = &blockScratch{
			node:    make([]blockNode, p.n),
			inq:     make([]int32, p.n),
			estamp:  make([]int32, p.m),
			emask:   make([]blockMask, p.m),
			touched: make([]int32, 0, p.n),
		}
	}
	return s.bs
}

// nextEpoch advances the block-trial stamp, clearing all stamps on the
// (rare) int32 wraparound so stale stamps can never alias.
func (bs *blockScratch) nextEpoch() int32 {
	if bs.epoch+1 <= 0 {
		for i := range bs.node {
			bs.node[i].stamp = 0
		}
		for i := range bs.inq {
			bs.inq[i] = 0
		}
		for i := range bs.estamp {
			bs.estamp[i] = 0
		}
		bs.epoch = 0
	}
	bs.epoch++
	return bs.epoch
}

// WorldsBlockSession runs the block kernel over ONE logical word-trial
// stream; it is the only exported entry point of the bit-parallel
// kernels. A session derives its four lane RNG streams from one root
// draw of the caller's RNG (borrowBlockRNG), on the first call that
// simulates a whole block, and keeps them across calls: the
// concatenation of Counts calls consumes randomness exactly like a
// single call over the summed words — the property the deadline-aware
// estimators need to put context checks between chunks without
// perturbing a completed run's scores. Every call but the last must
// pass a multiple of BlockWords words for that equivalence (rank's
// chunk sizes are BlockSize-multiples of trials, which guarantees it);
// the words of a call that do not fill a whole block run on the
// single-word kernel of worlds.go, continuing the caller's RNG. A fixed
// (plan, seed, call sequence) therefore always reproduces the same
// counts. Not safe for concurrent use; shards hold one session each.
type WorldsBlockSession struct {
	p       *Plan
	rng     *prob.RNG
	br      blockRNG
	started bool
}

// NewWorldsBlockSession starts a session on p drawing from rng.
func (p *Plan) NewWorldsBlockSession(rng *prob.RNG) *WorldsBlockSession {
	return &WorldsBlockSession{p: p, rng: rng}
}

// Counts runs words 64-world word-trials and ADDS per-node reach
// counts into counts (length NumNodes), continuing the session's lane
// streams. The caller accounts words·WordSize trials per call.
//
// mask, when non-nil, is an ActiveMask (length NumNodes): out-edges
// whose head is outside it are skipped without sampling their presence
// masks. This is the top-k racer's shared-sample round — one block
// traversal feeds every surviving candidate's counter, so all active
// candidates are judged against the same possible worlds, and
// eliminated candidates' subgraphs are never coined. When the source
// itself is dead the word-trials are accounted but nothing is sampled.
func (s *WorldsBlockSession) Counts(counts []int64, mask []bool, words int, ops *SimOps) {
	p := s.p
	p.checkCounts(counts)
	if mask != nil {
		p.checkMask(mask)
		if !mask[p.source] {
			if ops != nil {
				ops.Trials += int64(words) * WordSize
			}
			return
		}
	}
	nBlocks := words / BlockWords
	rem := words - nBlocks*BlockWords
	sc := p.getScratch()
	sc.resetCounts()
	if nBlocks > 0 {
		if !s.started {
			s.br = borrowBlockRNG(s.rng)
			s.started = true
		}
		p.traverseBlocks(sc, mask, nBlocks, &s.br, ops)
	}
	if rem > 0 {
		p.traverseWorlds(sc, mask, rem, s.rng, ops)
	}
	for i := 0; i < p.n; i++ {
		counts[i] += sc.nodes[i].count
	}
	p.putScratch(sc)
}

// traverseBlocks is the block-parallel inner loop on the session's lane
// streams: a monotone frontier fixpoint over the CSR plan, BlockSize
// worlds per pass. The structure is traverseWorlds with every mask
// widened to BlockWords lanes and the lane arithmetic unrolled; reach
// masks only ever grow, a node re-enters the worklist when new worlds
// reach it, and the stored per-block element masks make re-scans see
// the same coins. live, when non-nil, restricts the traversal to the
// active-subset closure exactly like traverse.
func (p *Plan) traverseBlocks(sc *Scratch, live []bool, nBlocks int, br *blockRNG, ops *SimOps) {
	bs := sc.blocks(p)
	wn := bs.node
	inq := bs.inq
	nodes := sc.nodes
	stack := sc.stack
	edges := p.edges
	src := p.source
	srcPB := p.nodePBits[src]
	var flips, visits int64

	for w := 0; w < nBlocks; w++ {
		cur := bs.nextEpoch()
		touched := bs.touched[:0]
		srcMask := blockOnes
		if srcPB != coinCertain {
			flips++
			if srcPB == 0 {
				srcMask = blockMask{}
			} else {
				br.bernoulliMaskBlock(srcPB, &srcMask)
			}
		}
		if srcMask[0]|srcMask[1]|srcMask[2]|srcMask[3] == 0 {
			continue // source absent in all worlds of the block
		}
		sn := &wn[src]
		sn.stamp = cur
		sn.present = srcMask
		sn.reach = srcMask
		touched = append(touched, src)
		stack[0] = src
		inq[src] = cur
		top := 1
		for top > 0 {
			top--
			x := stack[top]
			inq[x] = cur - 1 // popped; may re-enter on new worlds
			rx := &wn[x].reach
			r0, r1, r2, r3 := rx[0], rx[1], rx[2], rx[3]
			for i, end := int(nodes[x].row), int(nodes[x].end); i < end; i++ {
				e := &edges[i]
				to := e.to
				if live != nil && !live[to] {
					continue // dead: cannot reach any active answer
				}
				// Edge presence, sampled once per block-trial.
				t0, t1, t2, t3 := r0, r1, r2, r3
				if e.qbits != coinCertain {
					if e.qbits == 0 {
						continue
					}
					if bs.estamp[i] != cur {
						bs.estamp[i] = cur
						br.bernoulliMaskBlock(e.qbits, &bs.emask[i])
						flips++
					}
					em := &bs.emask[i]
					t0 &= em[0]
					t1 &= em[1]
					t2 &= em[2]
					t3 &= em[3]
				}
				if t0|t1|t2|t3 == 0 {
					continue // edge absent in every reached world
				}
				nc := &wn[to]
				if nc.stamp != cur {
					// First touch this block-trial: decide the node's
					// presence once for all BlockSize worlds.
					pb := nodes[to].pbits
					if pb != coinCertain {
						flips++
						if pb == 0 {
							nc.present = blockMask{}
						} else {
							br.bernoulliMaskBlock(pb, &nc.present)
						}
					} else {
						nc.present = blockOnes
					}
					nc.stamp = cur
					nc.reach = blockMask{}
					touched = append(touched, to)
				}
				n0 := t0 & nc.present[0] &^ nc.reach[0]
				n1 := t1 & nc.present[1] &^ nc.reach[1]
				n2 := t2 & nc.present[2] &^ nc.reach[2]
				n3 := t3 & nc.present[3] &^ nc.reach[3]
				if n0|n1|n2|n3 == 0 {
					continue
				}
				nc.reach[0] |= n0
				nc.reach[1] |= n1
				nc.reach[2] |= n2
				nc.reach[3] |= n3
				if nodes[to].row != nodes[to].end && inq[to] != cur {
					stack[top] = to
					inq[to] = cur
					top++
				}
			}
		}
		// Harvest this block-trial's reach masks into the per-node
		// counters — only the touched closure, not all n cells.
		for _, ti := range touched {
			nd := &wn[ti]
			c := int64(bits.OnesCount64(nd.reach[0]) + bits.OnesCount64(nd.reach[1]) +
				bits.OnesCount64(nd.reach[2]) + bits.OnesCount64(nd.reach[3]))
			nodes[ti].count += c
			visits += c
		}
		bs.touched = touched[:0]
	}
	if ops != nil {
		ops.Trials += int64(nBlocks) * BlockSize
		ops.NodeVisits += visits
		ops.CoinFlips += flips
	}
}
