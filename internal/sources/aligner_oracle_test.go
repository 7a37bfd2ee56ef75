package sources_test

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"biorank/internal/bio"
	"biorank/internal/prob"
	"biorank/internal/sources"
	"biorank/internal/synth"
)

// refAligner is the scalar aligner that the pruned integer aligner
// replaced, kept verbatim as the test oracle: a per-subject seen map
// while indexing, a map of seed counts per search, and a float64 score
// of every seeded candidate on each of five diagonals, one range-checked
// residue at a time. It copies K, Lambda, KParam and MaxEValue from the
// aligner under test and scores +4 per match and −2 per mismatch, the
// only values the old NewAligner set.
type refAligner struct {
	K                           int
	Lambda, KParam              float64
	MatchScore, MismatchPenalty float64
	MaxEValue                   float64

	corpus []bio.Protein
	index  map[string][]int32
	dbLen  int
}

func newRefAligner(corpus []bio.Protein, al *sources.Aligner) *refAligner {
	a := &refAligner{
		K:               al.K,
		Lambda:          al.Lambda,
		KParam:          al.KParam,
		MatchScore:      4,
		MismatchPenalty: 2,
		MaxEValue:       al.MaxEValue,
		corpus:          append([]bio.Protein(nil), corpus...),
	}
	a.index = make(map[string][]int32)
	for i, p := range a.corpus {
		a.dbLen += len(p.Seq)
		seen := make(map[string]struct{})
		for j := 0; j+a.K <= len(p.Seq); j++ {
			kmer := string(p.Seq[j : j+a.K])
			if _, dup := seen[kmer]; dup {
				continue
			}
			seen[kmer] = struct{}{}
			a.index[kmer] = append(a.index[kmer], int32(i))
		}
	}
	return a
}

// seedCounts is the candidate-generation half of the reference Search.
func (a *refAligner) seedCounts(q bio.Sequence) map[int32]int {
	counts := make(map[int32]int)
	for j := 0; j+a.K <= len(q); j++ {
		for _, idx := range a.index[string(q[j:j+a.K])] {
			counts[idx]++
		}
	}
	return counts
}

func (a *refAligner) Search(q bio.Sequence, maxHits int) []sources.Hit {
	if len(q) < a.K {
		return nil
	}
	counts := a.seedCounts(q)
	const minSeeds = 2
	var hits []sources.Hit
	for idx, c := range counts {
		if c < minSeeds {
			continue
		}
		subj := a.corpus[idx]
		score := a.alignScore(q, subj.Seq)
		if score <= 0 {
			continue
		}
		e := a.evalue(score, len(q))
		if e > a.MaxEValue {
			continue
		}
		hits = append(hits, sources.Hit{Subject: subj, Score: score, EValue: e})
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

func (a *refAligner) alignScore(q, s bio.Sequence) float64 {
	best := 0.0
	for off := -2; off <= 2; off++ {
		score := a.diagonalScore(q, s, off)
		if score > best {
			best = score
		}
	}
	return best
}

func (a *refAligner) diagonalScore(q, s bio.Sequence, off int) float64 {
	var best, run float64
	for i := 0; i < len(q); i++ {
		j := i + off
		if j < 0 || j >= len(s) {
			continue
		}
		if q[i] == s[j] {
			run += a.MatchScore
		} else {
			run -= a.MismatchPenalty
		}
		if run < 0 {
			run = 0
		}
		if run > best {
			best = run
		}
	}
	return best
}

func (a *refAligner) evalue(score float64, queryLen int) float64 {
	e := a.KParam * float64(queryLen) * float64(a.dbLen) * math.Exp(-a.Lambda*score)
	if e < 1e-300 {
		e = 1e-300
	}
	return e
}

// sameHits compares two hit lists bit for bit: accession, score,
// e-value and order.
func sameHits(t *testing.T, what string, got, want []sources.Hit) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d hits, oracle %d", what, len(got), len(want))
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Subject.Accession != w.Subject.Accession ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.EValue) != math.Float64bits(w.EValue) {
			t.Errorf("%s: hit %d = {%s %v %v}, oracle {%s %v %v}", what, i,
				g.Subject.Accession, g.Score, g.EValue, w.Subject.Accession, w.Score, w.EValue)
			return false
		}
	}
	return true
}

// demoCorpus returns the demo world's protein corpus and its aligner.
func demoCorpus() ([]bio.Protein, *sources.Aligner) {
	w := synth.NewScenario12(1)
	return w.Registry.EntrezProtein.All(), w.Registry.Blast
}

// raceEnabled is set under the race detector (race_test.go), which
// slows the oracle's scalar loops too much for a full corpus sweep.
var raceEnabled bool

// corpusStride is how many demo-corpus proteins the full sweep steps
// over per query: every one normally, every 16th under -short or -race.
func corpusStride() int {
	if testing.Short() || raceEnabled {
		return 16
	}
	return 1
}

// TestAlignerMatchesOracleOnDemoCorpus searches the demo world with every
// protein of its corpus and requires the oracle's hits bit for bit. The
// world's aligner (the one integration uses, at its 1e-6 cutoff) gets
// the full sweep; an aligner at the default cutoff, where many more
// subjects pass, gets every 16th query. Queries run on GOMAXPROCS
// goroutines: both aligners are read-only once built.
func TestAlignerMatchesOracleOnDemoCorpus(t *testing.T) {
	corpus, world := demoCorpus()
	loose := sources.NewAligner(corpus) // default MaxEValue 10
	for _, c := range []struct {
		al     *sources.Aligner
		stride int
	}{{world, corpusStride()}, {loose, 16}} {
		ref := newRefAligner(corpus, c.al)
		next := make(chan int)
		var wg sync.WaitGroup
		var failed atomic.Bool
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					p := corpus[i]
					what := fmt.Sprintf("maxE=%g query %s", c.al.MaxEValue, p.Accession)
					if !sameHits(t, what, c.al.Search(p.Seq, 0), ref.Search(p.Seq, 0)) {
						failed.Store(true)
					}
				}
			}()
		}
		for i := 0; i < len(corpus) && !failed.Load(); i += c.stride {
			next <- i
		}
		close(next)
		wg.Wait()
		// The mediator's cap truncates after the same total order.
		p := corpus[0]
		sameHits(t, fmt.Sprintf("maxE=%g capped", c.al.MaxEValue), c.al.Search(p.Seq, 5), ref.Search(p.Seq, 5))
	}
}

// variants derives the edge-case queries from a sequence: point-mutated
// copies at three divergences, pieces shorter than K and shorter than
// the five-diagonal span, pieces straddling one and two 8-residue
// words, and the suffix.
func variants(rng *prob.RNG, s bio.Sequence) []bio.Sequence {
	out := []bio.Sequence{
		bio.Mutate(rng, s, 0.1),
		bio.Mutate(rng, s, 0.3),
		bio.Mutate(rng, s, 0.6),
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 40} {
		if n <= len(s) {
			out = append(out, s[:n], s[len(s)-n:], s[(len(s)-n)/2:(len(s)-n)/2+n])
		}
	}
	return append(out, s[1:], s[:len(s)-3])
}

// TestAlignerMatchesOracleOnVariants covers mutated and truncated
// queries against the demo corpus, then swaps the roles: the variants
// become the corpus (subjects shorter than K and than the diagonal span
// included) and the originals the queries.
func TestAlignerMatchesOracleOnVariants(t *testing.T) {
	corpus, al := demoCorpus()
	ref := newRefAligner(corpus, al)
	rng := prob.NewRNG(41)
	var swapped []bio.Protein
	var originals []bio.Sequence
	for i := 0; i < len(corpus); i += 97 {
		p := corpus[i]
		originals = append(originals, p.Seq)
		for k, v := range variants(rng, p.Seq) {
			what := fmt.Sprintf("variant %d (len %d) of %s", k, len(v), p.Accession)
			if !sameHits(t, what, al.Search(v, 0), ref.Search(v, 0)) {
				return
			}
			swapped = append(swapped, bio.Protein{
				Accession: fmt.Sprintf("%s-v%d", p.Accession, k), Gene: p.Gene, Seq: v,
			})
		}
	}
	for _, maxE := range []float64{al.MaxEValue, 10} {
		sw := sources.NewAligner(swapped)
		sw.MaxEValue = maxE
		swRef := newRefAligner(swapped, sw)
		for i, q := range originals {
			for _, v := range []bio.Sequence{q, q[:len(q)/2]} {
				what := fmt.Sprintf("maxE=%g swapped query %d (len %d)", maxE, i, len(v))
				if !sameHits(t, what, sw.Search(v, 0), swRef.Search(v, 0)) {
					return
				}
			}
		}
	}
}

// TestAlignScoreMatchesOracle compares the integer scorer with the five
// range-checked float64 diagonal passes on every length pair up to 20
// residues in both orders, related and unrelated, and on long pairs.
func TestAlignScoreMatchesOracle(t *testing.T) {
	al := sources.NewAligner(nil)
	ref := newRefAligner(nil, al)
	rng := prob.NewRNG(43)
	check := func(q, s bio.Sequence) bool {
		for _, pair := range [2][2]bio.Sequence{{q, s}, {s, q}} {
			got, want := sources.AlignScore(pair[0], pair[1]), ref.alignScore(pair[0], pair[1])
			if math.Float64bits(float64(got)) != math.Float64bits(want) {
				t.Errorf("alignScore(%q, %q) = %d, oracle %v", pair[0], pair[1], got, want)
				return false
			}
		}
		return true
	}
	for n := 0; n <= 20; n++ {
		for m := 0; m <= 20; m++ {
			a := bio.RandomSequence(rng, n)
			if !check(a, bio.RandomSequence(rng, m)) {
				return
			}
			// Related: b is a mutated, shifted copy of a.
			b := bio.Mutate(rng, a, 0.2)
			if shift := m % 3; shift <= len(b) {
				b = b[shift:]
			}
			if !check(a, b) {
				return
			}
		}
	}
	for i := 0; i < 50; i++ {
		a := bio.RandomSequence(rng, 100+rng.Intn(300))
		b := bio.Mutate(rng, a, rng.Float64())
		if cut := rng.Intn(5); cut < len(b) {
			b = b[cut:]
		}
		if !check(a, b) || !check(a, bio.RandomSequence(rng, 50+rng.Intn(300))) {
			return
		}
	}
}

// TestScoreBoundNeverBelowExact is the property the pruning rests on:
// for any pair, the block bound is at least the exact score.
func TestScoreBoundNeverBelowExact(t *testing.T) {
	rng := prob.NewRNG(47)
	for i := 0; i < 20000; i++ {
		q := bio.RandomSequence(rng, rng.Intn(120))
		var s bio.Sequence
		switch i % 3 {
		case 0:
			s = bio.RandomSequence(rng, rng.Intn(120))
		case 1:
			s = bio.Mutate(rng, q, rng.Float64())
		default: // a shifted, mutated copy: the off-zero diagonals score
			s = bio.RandomSequence(rng, rng.Intn(3)) + bio.Mutate(rng, q, 0.3*rng.Float64())
		}
		exact, bound := sources.AlignScore(q, s), sources.ScoreBound(q, s)
		if bound < exact {
			t.Fatalf("bound %d < exact %d for\n q=%q\n s=%q", bound, exact, q, s)
		}
	}
}

// TestScoreFloorMatchesEValueFilter pins the floor to the filter: the
// floor's e-value passes MaxEValue and every positive score below it
// fails, over query lengths and cutoffs including ones no score passes.
func TestScoreFloorMatchesEValueFilter(t *testing.T) {
	corpus, al := demoCorpus()
	ref := newRefAligner(corpus, al)
	for _, maxE := range []float64{1e-300, 1e-6, 1, 10, 1e300, math.NaN()} {
		al.MaxEValue, ref.MaxEValue = maxE, maxE
		for _, qlen := range []int{1, 3, 5, 100, 300, 1000} {
			floor := al.ScoreFloor(qlen)
			for s := 1; s < floor; s++ {
				if !(ref.evalue(float64(s), qlen) > maxE) {
					t.Fatalf("maxE=%g qlen=%d: score %d passes below the floor %d", maxE, qlen, s, floor)
				}
			}
			if floor <= int(ref.MatchScore)*qlen && ref.evalue(float64(floor), qlen) > maxE {
				t.Fatalf("maxE=%g qlen=%d: floor %d fails the filter", maxE, qlen, floor)
			}
		}
	}
}

// TestBoundPrunesDemoCandidates measures what the bound buys on the 20
// demo query proteins: the share of seed-passing candidates it skips
// without an exact score, which must stay high for the pruning to pay.
// It also checks that no pruned candidate is a hit.
func TestBoundPrunesDemoCandidates(t *testing.T) {
	w := synth.NewScenario12(1)
	al := w.Registry.Blast
	ref := newRefAligner(w.Registry.EntrezProtein.All(), al)
	var seeded, pruned, keptHits int
	for _, c := range w.Cases {
		for _, p := range w.Registry.EntrezProtein.ByName(c.Protein) {
			floor := al.ScoreFloor(len(p.Seq))
			for idx, n := range ref.seedCounts(p.Seq) {
				if n < 2 {
					continue
				}
				seeded++
				s := ref.corpus[idx].Seq
				exact := ref.alignScore(p.Seq, s)
				hit := exact > 0 && !(ref.evalue(exact, len(p.Seq)) > al.MaxEValue)
				if sources.ScoreBound(p.Seq, s) < floor {
					pruned++
					if hit {
						t.Fatalf("%s: pruned subject %s is a hit", p.Accession, ref.corpus[idx].Accession)
					}
				} else if hit {
					keptHits++
				}
			}
		}
	}
	share := float64(pruned) / float64(seeded)
	t.Logf("bound pruned %d of %d seed-passing candidates (%.1f%%); %d of the %d kept are hits",
		pruned, seeded, 100*share, keptHits, seeded-pruned)
	if share < 0.9 {
		t.Errorf("bound pruned only %.1f%% of seed-passing candidates", 100*share)
	}
}
