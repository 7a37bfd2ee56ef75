package sources

import (
	"math"
	"strings"
	"testing"

	"biorank/internal/bio"
	"biorank/internal/prob"
)

func buildTestProfileDB(rng *prob.RNG) (*ProfileDB, []*bio.Family) {
	fams := []*bio.Family{
		bio.NewFamily(rng, "PF0001", 150, "GO:0000010"),
		bio.NewFamily(rng, "PF0002", 150, "GO:0000020"),
		bio.NewFamily(rng, "PF0003", 150, "GO:0000030"),
	}
	db := NewProfileDB("Pfam", 0.5, 0)
	for _, f := range fams {
		members := make([]bio.Sequence, 8)
		for i := range members {
			members[i] = f.Member(rng, 0.1)
		}
		db.Add(BuildProfile(f.Name, members, f.Functions))
	}
	return db, fams
}

func TestProfileScoresFamilyAboveBackground(t *testing.T) {
	rng := prob.NewRNG(41)
	db, fams := buildTestProfileDB(rng)
	member := fams[0].Member(rng, 0.1)
	stranger := bio.RandomSequence(rng, 150)
	p := BuildProfile("tmp", []bio.Sequence{fams[0].Consensus}, nil)
	if p.Score(member) <= p.Score(stranger) {
		t.Fatal("profile should score family member above random sequence")
	}
	_ = db
}

func TestProfileDBMatchFindsRightFamily(t *testing.T) {
	rng := prob.NewRNG(43)
	db, fams := buildTestProfileDB(rng)
	for fi, fam := range fams {
		q := fam.Member(rng, 0.1)
		hits := db.Match(q, 0)
		if len(hits) == 0 {
			t.Fatalf("family %d member got no hits", fi)
		}
		if hits[0].Profile.Name != fam.Name {
			t.Fatalf("family %d member matched %s first", fi, hits[0].Profile.Name)
		}
	}
}

func TestProfileDBRejectsRandomSequences(t *testing.T) {
	rng := prob.NewRNG(47)
	db, _ := buildTestProfileDB(rng)
	for i := 0; i < 10; i++ {
		q := bio.RandomSequence(rng, 150)
		hits := db.Match(q, 0)
		for _, h := range hits {
			if h.EValue < 1e-5 {
				t.Fatalf("random sequence got strong profile hit %v", h.EValue)
			}
		}
	}
}

func TestProfileEValueMonotoneInDivergence(t *testing.T) {
	rng := prob.NewRNG(53)
	db, fams := buildTestProfileDB(rng)
	prev := 0.0
	for i, div := range []float64{0.0, 0.15, 0.3} {
		hits := db.Match(fams[1].Member(rng, div), 0)
		if len(hits) == 0 {
			continue
		}
		if i > 0 && hits[0].EValue < prev {
			t.Fatalf("profile e-value not monotone at divergence %v", div)
		}
		prev = hits[0].EValue
	}
}

func TestProfileMatchDeterministicAndCapped(t *testing.T) {
	rng := prob.NewRNG(59)
	db, fams := buildTestProfileDB(rng)
	q := fams[2].Member(rng, 0.05)
	h1 := db.Match(q, 2)
	h2 := db.Match(q, 2)
	if len(h1) > 2 {
		t.Fatal("maxHits not enforced")
	}
	if len(h1) != len(h2) {
		t.Fatal("nondeterministic")
	}
	for i := range h1 {
		if h1[i].Profile.Name != h2[i].Profile.Name {
			t.Fatal("nondeterministic order")
		}
	}
}

func TestBuildProfilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildProfile("x", nil, nil)
}

func TestProfileLength(t *testing.T) {
	p := BuildProfile("x", []bio.Sequence{"ACDEF", "ACDE"}, nil)
	if p.Length() != 4 {
		t.Fatalf("profile length %d, want min member length 4", p.Length())
	}
}

// TestProfileScoreResidueTable checks the 256-entry residue table
// against the alphabet search it replaced, summing in the same order so
// scores agree bit for bit, non-alphabet bytes (skipped) included.
func TestProfileScoreResidueTable(t *testing.T) {
	rng := prob.NewRNG(53)
	db, fams := buildTestProfileDB(rng)
	seqs := []bio.Sequence{fams[1].Member(rng, 0.2), bio.RandomSequence(rng, 200), "ACxDE*FG\x00\xffKL", ""}
	for _, p := range db.profiles {
		for _, s := range seqs {
			var want float64
			for i := 0; i < len(p.weights) && i < len(s); i++ {
				if idx := strings.IndexByte(bio.Alphabet, s[i]); idx >= 0 {
					want += p.weights[i][idx]
				}
			}
			if got := p.Score(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s.Score(%q) = %v, want %v", p.Name, s, got, want)
			}
		}
	}
}
