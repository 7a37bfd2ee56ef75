// Package kernel is BioRank's compiled simulation kernel: it flattens a
// probabilistic query graph into a cache-friendly CSR/CSC plan once, and
// then runs the hot inner loops of the ranking semantics — the traversal
// and naive Monte Carlo estimators of Algorithm 3.1, relevance
// propagation (Algorithm 3.2) and diffusion (Algorithm 3.3) — over flat
// arrays with zero steady-state allocation.
//
// Why a separate compilation step: the graph package stores adjacency as
// [][]EdgeID and returns full Edge/Node structs (with string fields) per
// access, which is the right representation for building and mutating
// graphs but makes the Monte Carlo inner loop chase pointers and copy
// ~50 bytes per coin flip. A Plan lays the same topology out as
// contiguous arrays indexed by per-node row offsets — an edge is a
// 16-byte {to, qbits} record, and all per-node simulation state (visit
// stamp, row bounds, presence-coin threshold, reach count) shares one
// 32-byte cell — so each inner-loop step touches one or two cache lines
// instead of five.
//
// Three invariants make plans drop-in replacements for the reference
// implementations in internal/rank:
//
//   - Stream identity. Kernels consume the RNG exactly like the
//     reference code: one uniform draw per coin with probability
//     strictly between 0 and 1, none for certain elements (p<=0 or
//     p>=1), in the same element order. Scores are therefore
//     bit-identical for a fixed seed, and the certainty fast path — most
//     elements of curated scientific sources have p=1 — costs nothing
//     in reproducibility.
//   - Op parity. The CoinFlips/NodeVisits counters advance exactly as in
//     the reference estimators, so efficiency assertions keyed to
//     deterministic operation counts hold unchanged.
//   - Read-only sharing. A compiled Plan never writes to itself; all
//     mutable state lives in per-call Scratch arenas drawn from an
//     internal sync.Pool. Any number of goroutines may run kernels on
//     one Plan concurrently.
package kernel

import (
	"fmt"
	"math"
	"sync"

	"biorank/internal/graph"
)

// coinCertain marks a probability >= 1: the element is present without
// consuming a draw. Thresholds of uncertain probabilities never exceed
// 2^53, so the marker cannot collide.
const coinCertain = ^uint64(0)

// coinBits compiles a probability into the integer coin threshold the
// kernels compare RNG draws against: a draw u (the 53 uniform bits of
// Float64) succeeds iff u < coinBits(p). For p in (0,1) the threshold
// is ceil(p·2⁵³), which makes the integer comparison exactly equivalent
// to Float64() < p — u·2⁻⁵³ and p·2⁵³ are both exact in float64, and
// u < ceil(y) ⟺ u < y for integer u. p <= 0 compiles to 0 (never
// succeeds, and the kernels skip the draw); p >= 1 compiles to
// coinCertain (always succeeds, no draw) — prob.RNG.Bernoulli's
// certainty behavior, branch for branch.
func coinBits(p float64) uint64 {
	if p >= 1 {
		return coinCertain
	}
	if p <= 0 {
		return 0
	}
	t := p * 0x1p53 // exact: power-of-two scaling
	ti := uint64(t)
	if float64(ti) < t {
		ti++ // ceil
	}
	return ti
}

// csrEdge is one out-edge in compiled form: target node and compiled
// coin threshold interleaved so the inner loop loads both with one
// access.
type csrEdge struct {
	to    int32
	_     uint32 // padding; keeps qbits 8-byte aligned (struct size 16)
	qbits uint64
}

// cscEdge is one in-edge in compiled form, for the iterative semantics.
type cscEdge struct {
	from int32
	_    uint32
	q    float64
}

// Plan is a query graph compiled to flat-array (CSR out-adjacency plus
// CSC in-adjacency) form. Compile once, run kernels many times; the plan
// itself is immutable and safe for concurrent use.
type Plan struct {
	n int // nodes
	m int // edges

	source  int32
	answers []int32

	// CSR: out-edges of node x occupy positions rowStart[x] to
	// rowStart[x+1] in edges, in the graph's Out order (which the RNG
	// stream contract depends on).
	rowStart []int32
	edges    []csrEdge
	edgeID   []int32 // CSR position -> original EdgeID (for the naive kernel)

	// CSC: in-edges of node y occupy positions colStart[y] to
	// colStart[y+1] in inEdges, in the graph's In order.
	colStart []int32
	inEdges  []cscEdge

	nodeP     []float64 // float probabilities, for the iterative kernels
	nodePBits []uint64  // compiled coin thresholds per node
	qBitsByID []uint64  // compiled edge thresholds by EdgeID (naive coin order)

	isDAG   bool
	longest int // longest path length from source, 0 unless isDAG

	pool sync.Pool // *Scratch sized for this plan
}

// Compile flattens qg into a Plan. Cost is O(n+m) plus one topological
// sort; the result references nothing in qg, so later graph mutations
// cannot corrupt it (they make it stale instead — callers key plan
// caches by the graph's Version and Fingerprint).
func Compile(qg *graph.QueryGraph) *Plan {
	n, m := qg.NumNodes(), qg.NumEdges()
	p := &Plan{
		n:         n,
		m:         m,
		source:    int32(qg.Source),
		answers:   make([]int32, len(qg.Answers)),
		rowStart:  make([]int32, n+1),
		edges:     make([]csrEdge, m),
		edgeID:    make([]int32, m),
		colStart:  make([]int32, n+1),
		inEdges:   make([]cscEdge, m),
		nodeP:     make([]float64, n),
		nodePBits: make([]uint64, n),
		qBitsByID: make([]uint64, m),
	}
	for i, a := range qg.Answers {
		p.answers[i] = int32(a)
	}
	pos := 0
	for x := 0; x < n; x++ {
		p.rowStart[x] = int32(pos)
		p.nodeP[x] = qg.Node(graph.NodeID(x)).P
		p.nodePBits[x] = coinBits(p.nodeP[x])
		for _, eid := range qg.Out(graph.NodeID(x)) {
			e := qg.Edge(eid)
			p.edges[pos] = csrEdge{to: int32(e.To), qbits: coinBits(e.Q)}
			p.edgeID[pos] = int32(eid)
			p.qBitsByID[eid] = coinBits(e.Q)
			pos++
		}
	}
	p.rowStart[n] = int32(pos)
	pos = 0
	for y := 0; y < n; y++ {
		p.colStart[y] = int32(pos)
		for _, eid := range qg.In(graph.NodeID(y)) {
			e := qg.Edge(eid)
			p.inEdges[pos] = cscEdge{from: int32(e.From), q: e.Q}
			pos++
		}
	}
	p.colStart[n] = int32(pos)
	if l, err := qg.LongestPathFrom(qg.Source); err == nil {
		p.isDAG, p.longest = true, l
	}
	p.pool.New = func() any { return newScratch(p) }
	return p
}

// PlanOf returns qg's compiled plan: Compile, memoized on the query
// graph by graph.Derive. Every ranker, facade handle and ranking pass
// over one query graph therefore shares one plan per graph Version.
func PlanOf(qg *graph.QueryGraph) *Plan { return graph.Derive(qg, planKey{}, Compile) }

type planKey struct{}

// NumNodes returns the compiled node count.
func (p *Plan) NumNodes() int { return p.n }

// NumEdges returns the compiled edge count.
func (p *Plan) NumEdges() int { return p.m }

// NumAnswers returns the size of the compiled answer set.
func (p *Plan) NumAnswers() int { return len(p.answers) }

// IsDAG reports whether the compiled graph is acyclic.
func (p *Plan) IsDAG() bool { return p.isDAG }

// LongestFromSource returns the longest path length (in edges) from the
// source, valid only when IsDAG.
func (p *Plan) LongestFromSource() int { return p.longest }

// Matches reports whether the plan's structure is consistent with qg:
// same node/edge counts, source and answer set. It is a cheap sanity
// check against passing a plan compiled from a different graph — it
// deliberately does NOT compare probabilities (callers that mutate
// probabilities must recompile, keyed by the graph's Version).
func (p *Plan) Matches(qg *graph.QueryGraph) bool {
	if qg == nil || p.n != qg.NumNodes() || p.m != qg.NumEdges() ||
		p.source != int32(qg.Source) || len(p.answers) != len(qg.Answers) {
		return false
	}
	for i, a := range qg.Answers {
		if p.answers[i] != int32(a) {
			return false
		}
	}
	return true
}

// BatchHint returns a Monte Carlo trial-chunk size for callers that
// check a context (or other stop signal) between kernel calls: large
// enough that per-call overhead amortizes to noise, small enough that a
// cancelled deadline is noticed within roughly a millisecond on typical
// hardware. The hint shrinks as the plan grows (per-trial cost scales
// with the reachable element count) and is always a multiple of
// BlockSize, so bit-parallel world batches chunk on whole [4]uint64
// blocks — a chunked run then consumes the block kernel's RNG stream
// exactly like a one-shot run, and scores stay bit-identical for a
// fixed seed. Cancellation checks belong at these chunk boundaries,
// never inside the per-trial lane loops.
func (p *Plan) BatchHint() int {
	// ~2M element-visits per chunk: ~1ms at the kernels' measured
	// throughput, conservatively assuming every trial touches the whole
	// plan (lazy traversal usually touches far less, making chunks only
	// cheaper, never slower to interrupt).
	const targetOps = 2 << 20
	const maxChunk = 1 << 14
	chunk := targetOps / (p.n + p.m + 1)
	if chunk >= maxChunk {
		return maxChunk
	}
	if chunk <= BlockSize {
		return BlockSize
	}
	return chunk - chunk%BlockSize
}

// ScoresFromCounts converts per-node reach counts accumulated over
// trials into per-answer scores. scores must have length NumAnswers.
func (p *Plan) ScoresFromCounts(counts []int64, trials int, scores []float64) {
	p.checkCounts(counts)
	p.checkScores(scores)
	for i, a := range p.answers {
		scores[i] = float64(counts[a]) / float64(trials)
	}
}

// checkScores validates a per-answer score buffer up front, so a
// mis-sized slice fails with a clear message instead of an
// index-out-of-range deep in an inner loop (or, worse, silently
// scoring a prefix of the answer set).
func (p *Plan) checkScores(scores []float64) {
	if len(scores) != len(p.answers) {
		panic(fmt.Sprintf("kernel: scores slice has length %d, want NumAnswers = %d (was the buffer sized for a different plan?)", len(scores), len(p.answers)))
	}
}

// checkCounts validates a per-node counter buffer up front; see
// checkScores.
func (p *Plan) checkCounts(counts []int64) {
	if len(counts) != p.n {
		panic(fmt.Sprintf("kernel: counts slice has length %d, want NumNodes = %d (was the buffer sized for a different plan?)", len(counts), p.n))
	}
}

// checkMask validates an active-subset mask buffer up front; see
// checkScores.
func (p *Plan) checkMask(mask []bool) {
	if len(mask) != p.n {
		panic(fmt.Sprintf("kernel: mask slice has length %d, want NumNodes = %d (was the mask built for a different plan?)", len(mask), p.n))
	}
}

// nodeCell is the per-node simulation state of a scratch arena. The
// traversal loop's accesses by target node — stamp check, presence coin,
// reach increment — all land in this one 32-byte cell, which also
// carries the node's own CSR row bounds for when it is popped.
type nodeCell struct {
	stamp int32 // trial stamp of the last visit
	row   int32 // copy of Plan.rowStart[i]
	end   int32 // copy of Plan.rowStart[i+1]
	_     int32
	pbits uint64 // compiled presence-coin threshold (coinBits)
	count int64
}

// Scratch is the per-call working memory of the kernels: stamped node
// cells, a DFS stack, per-trial element states and score buffers. One
// Scratch serves every kernel of its plan; it is not safe for concurrent
// use (each concurrent call borrows its own from the plan's pool).
type Scratch struct {
	nodes []nodeCell // len n+1; p/row are plan copies, stamp/count mutable
	epoch int32      // current stamp; survives across calls to avoid clears
	stack []int32

	nodeUp []bool // naive kernel: per-trial element states
	edgeUp []bool

	scoreA []float64 // iterative kernels: current / next score vectors
	scoreB []float64
	par    []parent // diffusion inner-solve buffer

	ws *worldScratch // bit-parallel working set, nil until first worlds call
	bs *blockScratch // block-parallel working set, nil until first block call
}

// parent is one incoming contribution to the diffusion inner solve.
type parent struct{ r, q float64 }

func newScratch(p *Plan) *Scratch {
	s := &Scratch{
		nodes:  make([]nodeCell, p.n),
		stack:  make([]int32, p.n),
		nodeUp: make([]bool, p.n),
		edgeUp: make([]bool, p.m),
		scoreA: make([]float64, p.n),
		scoreB: make([]float64, p.n),
	}
	for i := 0; i < p.n; i++ {
		s.nodes[i] = nodeCell{row: p.rowStart[i], end: p.rowStart[i+1], pbits: p.nodePBits[i]}
	}
	return s
}

// getScratch borrows a scratch arena from the plan's pool.
func (p *Plan) getScratch() *Scratch { return p.pool.Get().(*Scratch) }

// putScratch returns a scratch arena to the pool.
func (p *Plan) putScratch(s *Scratch) { p.pool.Put(s) }

// nextEpoch advances the scratch stamp by trials, resetting the stamps
// on the (rare) wraparound so stale stamps can never alias.
func (s *Scratch) nextEpoch(trials int) {
	if int64(s.epoch)+int64(trials)+1 >= math.MaxInt32 {
		for i := range s.nodes {
			s.nodes[i].stamp = 0
		}
		s.epoch = 0
	}
}

// resetCounts zeroes the per-node reach counters ahead of a simulation.
func (s *Scratch) resetCounts() {
	for i := range s.nodes {
		s.nodes[i].count = 0
	}
}
