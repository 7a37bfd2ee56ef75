// Package sources implements the eleven data sources BioRank integrates
// (Section 2 of the paper) as schema-faithful in-memory databases, plus
// the two computational substrates the paper depends on: an NCBI-BLAST-
// like sequence similarity search and Pfam/TIGRFAM-like profile matchers.
//
// The paper's table of sources (#E entity sets, #R relationships):
//
//	AmiGO 1/4, NCBIBlast 2/3, CDD 3/1, EntrezGene 2/3, EntrezProtein 1/11,
//	PDB 1/0, Pfam 2/2, PIRSF 2/2, UniProt 2/2, SuperFamily 3/1,
//	TIGRFAM 2/2.
//
// Every query method is deterministic given the stored data, so the full
// experiment pipeline is reproducible from a seed.
package sources

import (
	"math"
	"sort"

	"biorank/internal/bio"
)

// Hit is one BLAST search result: a subject protein with an alignment
// score and its e-value (the expected number of equally good chance hits
// in a database of this size — lower is stronger).
type Hit struct {
	Subject bio.Protein
	Score   float64
	EValue  float64
}

// Aligner is a seed-and-extend local aligner over a fixed protein corpus,
// in the spirit of NCBI BLAST: candidate subjects are located through a
// shared-k-mer index, scored by ungapped alignment, and assigned
// Karlin-Altschul e-values E = K·m·n·exp(−λS).
type Aligner struct {
	// K is the seed k-mer length (default 3, as for protein BLAST).
	K int
	// Lambda and KParam are the Karlin-Altschul parameters; the defaults
	// approximate ungapped protein search.
	Lambda, KParam float64
	// MaxEValue filters hits weaker than this threshold (default 10,
	// BLAST's default reporting cutoff).
	MaxEValue float64

	corpus []bio.Protein
	index  map[string][]int32 // k-mer -> ascending corpus indices, each once
	dbLen  int                // total residues in the corpus
}

// The ungapped scoring: an identical residue pair gains matchScore, any
// other pair costs mismatchPenalty.
const matchScore, mismatchPenalty = 4, 2

// NewAligner indexes the corpus with default parameters.
func NewAligner(corpus []bio.Protein) *Aligner {
	a := &Aligner{
		K:         3,
		Lambda:    0.267,
		KParam:    0.041,
		MaxEValue: 10,
		corpus:    append([]bio.Protein(nil), corpus...),
	}
	a.index = make(map[string][]int32)
	for i, p := range a.corpus {
		a.dbLen += len(p.Seq)
		for j := 0; j+a.K <= len(p.Seq); j++ {
			kmer := string(p.Seq[j : j+a.K])
			// Subjects are indexed in order, so a k-mer repeats within
			// subject i exactly when its posting list already ends in i.
			if l := a.index[kmer]; len(l) > 0 && l[len(l)-1] == int32(i) {
				continue
			}
			a.index[kmer] = append(a.index[kmer], int32(i))
		}
	}
	return a
}

// CorpusSize returns the number of indexed sequences.
func (a *Aligner) CorpusSize() int { return len(a.corpus) }

// Search returns up to maxHits subjects similar to q, strongest first
// (ascending e-value, ties broken by accession for determinism).
// Self-hits (identical accession) are included, as with real BLAST.
func (a *Aligner) Search(q bio.Sequence, maxHits int) []Hit {
	if len(q) < a.K {
		return nil
	}
	// Candidate generation: any subject sharing at least minSeeds k-mers.
	counts := make([]int32, len(a.corpus))
	for j := 0; j+a.K <= len(q); j++ {
		for _, idx := range a.index[string(q[j:j+a.K])] {
			counts[idx]++
		}
	}
	const minSeeds = 2
	// A candidate whose score bound is under the floor cannot pass the
	// e-value filter, so it is skipped without an exact score.
	floor := a.scoreFloor(len(q))
	var hits []Hit
	for idx, c := range counts {
		if c < minSeeds {
			continue
		}
		subj := a.corpus[idx]
		if scoreBound(q, subj.Seq) < floor {
			continue
		}
		score := float64(alignScore(q, subj.Seq))
		if score <= 0 {
			continue
		}
		e := a.evalue(score, len(q))
		if e > a.MaxEValue {
			continue
		}
		hits = append(hits, Hit{Subject: subj, Score: score, EValue: e})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].EValue != hits[j].EValue {
			return hits[i].EValue < hits[j].EValue
		}
		return hits[i].Subject.Accession < hits[j].Subject.Accession
	})
	if maxHits > 0 && len(hits) > maxHits {
		hits = hits[:maxHits]
	}
	return hits
}

// alignScore computes the best ungapped alignment score between q and s
// over the diagonals q[i] vs s[i+off], off = −2..2, keeping each
// diagonal's best contiguous segment (Smith-Waterman restricted to one
// diagonal); since our synthetic families diverge by point mutations
// only, the zero offset dominates, but the nearby diagonals are scanned
// for robustness.
func alignScore(q, s bio.Sequence) int {
	best := 0
	for off := -2; off <= 2; off++ {
		run := 0
		for i, hi := max(0, -off), min(len(q), len(s)-off); i < hi; i++ {
			if q[i] == s[i+off] {
				run += matchScore
			} else {
				run = max(run-mismatchPenalty, 0)
			}
			best = max(best, run)
		}
	}
	return best
}

// boundBlock is the width, in residues, of the fixed blocks scoreBound
// cuts each diagonal into: one 8-byte word.
const boundBlock = 8

// scoreBound returns an upper bound on alignScore(q, s) computed from
// match counts alone. Each diagonal is cut into fixed blocks from its
// first position, and a block's matches c are counted a word at a time.
// A segment gains at most matchScore·c on a block it only partly covers
// (its first and last), and exactly matchScore·c − mismatchPenalty·(len−c)
// on each block it fully spans, so the best such block sum — found by a
// Kadane scan over the blocks — bounds the diagonal's best segment.
func scoreBound(q, s bio.Sequence) int {
	// A full block scores gain·c − miss.
	const gain, miss = matchScore + mismatchPenalty, mismatchPenalty * boundBlock
	bound := 0
	for off := -2; off <= 2; off++ {
		lo, hi := max(0, -off), min(len(q), len(s)-off)
		if lo >= hi {
			continue
		}
		qd, sd := q[lo:hi], s[lo+off:hi+off]
		// open is the best bound of a segment that started in an
		// earlier block and spans every block since.
		open, best := 0, 0
		for len(qd) >= boundBlock && len(sd) >= boundBlock {
			c := matches8(load64(qd) ^ load64(sd))
			best = max(best, matchScore*c+max(open, 0))
			open = max(open+gain*c-miss, matchScore*c)
			qd, sd = qd[boundBlock:], sd[boundBlock:]
		}
		c := 0 // the diagonal's last, partial block
		for i := range len(qd) {
			if qd[i] == sd[i] {
				c++
			}
		}
		bound = max(bound, best, matchScore*c+max(open, 0))
	}
	return bound
}

// load64 reads s[0:8] as a little-endian word (one load once inlined).
func load64(s bio.Sequence) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// matches8 counts the zero bytes of x, the XOR of two 8-residue windows:
// the positions where they agree. A byte's high bit survives the
// complement exactly when all eight of its bits are zero (the masked add
// cannot carry into the next byte); the multiply sums the surviving
// bits, at most 8, into the top byte.
func matches8(x uint64) int {
	const low7, ones = 0x7f7f7f7f7f7f7f7f, 0x0101010101010101
	z := ^((x&low7 + low7) | x | low7) >> 7
	return int(z * ones >> 56)
}

// scoreFloor returns the least score Search can accept for a query of
// queryLen residues: the smallest integer S ≥ 1 whose e-value passes
// MaxEValue. It evaluates evalue at S = 1, 2, … rather than inverting
// the formula, so it agrees with Search's filter bit for bit: every
// positive score under the floor is one the filter rejects. No ungapped
// score exceeds matchScore·queryLen, so when none up to that passes the
// floor lies just above it.
func (a *Aligner) scoreFloor(queryLen int) int {
	top := matchScore * queryLen
	for s := 1; s <= top; s++ {
		if !(a.evalue(float64(s), queryLen) > a.MaxEValue) {
			return s
		}
	}
	return top + 1
}

// evalue is the Karlin-Altschul formula E = K·m·n·exp(−λS), floored to
// avoid subnormal noise.
func (a *Aligner) evalue(score float64, queryLen int) float64 {
	e := a.KParam * float64(queryLen) * float64(a.dbLen) * math.Exp(-a.Lambda*score)
	if e < 1e-300 {
		e = 1e-300
	}
	return e
}
