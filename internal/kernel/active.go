package kernel

// This file holds the active-subset mask of the compiled traversal
// kernels, built for top-k ranking with successive elimination
// (rank.TopKRacer): once a candidate answer is certifiably out of the
// top k, the racer shrinks the simulated subgraph to the nodes that can
// still influence a surviving candidate, so pruned candidates cost
// nothing in later batches. ReliabilityCounts and
// WorldsBlockSession.Counts take the mask.
//
// Correctness of the restriction: the reliability of an answer a is the
// probability that some source→a path is fully present. Every node on
// such a path can, by definition, reach a, so restricting the traversal
// to nodes that reach at least one active answer leaves the reach
// probability of every ACTIVE answer untouched — the skipped region can
// only serve answers nobody is racing anymore. The masked kernel
// consumes fewer RNG draws per trial than the full kernel (skipped
// elements flip no coins), so its stream diverges from the unmasked
// run; each per-trial outcome remains an exact Bernoulli sample of
// "source connects to a" for every active a.

// AnswerNode returns the compiled node index of answer i, for callers
// that accumulate per-node counts across batches and need to read a
// single candidate's counter.
func (p *Plan) AnswerNode(i int) int32 { return p.answers[i] }

// ActiveMask overwrites mask (length NumNodes) with the live-node set of
// an answer subset: node x is live iff at least one answer in active
// (answer indices, 0..NumAnswers-1) is reachable from x. Computed by
// reverse BFS over the plan's CSC in-adjacency in O(n+m); the racer
// calls it once per prune event, not per trial.
func (p *Plan) ActiveMask(active []int, mask []bool) {
	for i := range mask {
		mask[i] = false
	}
	stack := make([]int32, 0, len(active))
	for _, ai := range active {
		n := p.answers[ai]
		if !mask[n] {
			mask[n] = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		y := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, end := p.colStart[y], p.colStart[y+1]; i < end; i++ {
			f := p.inEdges[i].from
			if !mask[f] {
				mask[f] = true
				stack = append(stack, f)
			}
		}
	}
}
