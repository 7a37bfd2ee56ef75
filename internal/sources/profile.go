package sources

import (
	"math"
	"sort"
	"strings"

	"biorank/internal/bio"
)

// Profile is a position weight matrix over the amino-acid alphabet,
// standing in for the profile HMMs of Pfam and TIGRFAM: each family
// position holds log-odds weights ln(f_aa / background) estimated from
// member sequences with pseudocounts.
type Profile struct {
	Name      string
	Functions []bio.TermID
	weights   [][]float64 // [position][alphabet index]
}

const profilePseudocount = 0.5

// alphaIndex maps a residue byte to its index in bio.Alphabet, or -1.
var alphaIndex = func() (t [256]int8) {
	for c := range t {
		t[c] = int8(strings.IndexByte(bio.Alphabet, byte(c)))
	}
	return t
}()

// BuildProfile estimates a PWM from member sequences (all of the family's
// length; shorter members are padded conceptually by ignoring overflow).
// It panics if members is empty.
func BuildProfile(name string, members []bio.Sequence, functions []bio.TermID) *Profile {
	if len(members) == 0 {
		panic("sources: BuildProfile with no members")
	}
	length := len(members[0])
	for _, m := range members {
		if len(m) < length {
			length = len(m)
		}
	}
	nAlpha := len(bio.Alphabet)
	background := 1.0 / float64(nAlpha)
	weights := make([][]float64, length)
	for pos := 0; pos < length; pos++ {
		counts := make([]float64, nAlpha)
		total := profilePseudocount * float64(nAlpha)
		for i := range counts {
			counts[i] = profilePseudocount
		}
		for _, m := range members {
			if idx := alphaIndex[m[pos]]; idx >= 0 {
				counts[idx]++
				total++
			}
		}
		w := make([]float64, nAlpha)
		for i := range w {
			w[i] = math.Log(counts[i] / total / background)
		}
		weights[pos] = w
	}
	return &Profile{
		Name:      name,
		Functions: append([]bio.TermID(nil), functions...),
		weights:   weights,
	}
}

// Length returns the number of profile positions.
func (p *Profile) Length() int { return len(p.weights) }

// Score sums the positional log-odds of s against the profile; positive
// scores indicate family resemblance.
func (p *Profile) Score(s bio.Sequence) float64 {
	n := len(p.weights)
	if len(s) < n {
		n = len(s)
	}
	var sum float64
	for i := 0; i < n; i++ {
		if idx := alphaIndex[s[i]]; idx >= 0 {
			sum += p.weights[i][idx]
		}
	}
	return sum
}

// ProfileHit is one profile-database match with its e-value.
type ProfileHit struct {
	Profile *Profile
	Score   float64
	EValue  float64
}

// ProfileDB is a database of family profiles with e-value calibration,
// standing in for Pfam or TIGRFAM. Different instances use different
// Lambda to reflect that the two services score differently.
type ProfileDB struct {
	// Name identifies the database ("Pfam", "TIGRFAM", ...).
	Name string
	// Lambda scales scores in the e-value formula E = size·exp(−λS).
	Lambda float64
	// MaxEValue filters weak hits (default 1e-3, typical for profile
	// searches).
	MaxEValue float64

	profiles []*Profile
}

// NewProfileDB returns an empty profile database with the given scoring
// parameters; maxE ≤ 0 selects the 1e-3 default.
func NewProfileDB(name string, lambda, maxE float64) *ProfileDB {
	if maxE <= 0 {
		maxE = 1e-3
	}
	return &ProfileDB{Name: name, Lambda: lambda, MaxEValue: maxE}
}

// Add registers a family profile.
func (db *ProfileDB) Add(p *Profile) { db.profiles = append(db.profiles, p) }

// Len returns the number of profiles.
func (db *ProfileDB) Len() int { return len(db.profiles) }

// Match scores s against every profile and returns hits below the
// e-value cutoff, strongest first (deterministic order).
func (db *ProfileDB) Match(s bio.Sequence, maxHits int) []ProfileHit {
	var hits []ProfileHit
	for _, p := range db.profiles {
		score := p.Score(s)
		if score <= 0 {
			continue
		}
		e := float64(len(db.profiles)) * math.Exp(-db.Lambda*score)
		if e < 1e-300 {
			e = 1e-300
		}
		if e > db.MaxEValue {
			continue
		}
		hits = append(hits, ProfileHit{Profile: p, Score: score, EValue: e})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].EValue != hits[j].EValue {
			return hits[i].EValue < hits[j].EValue
		}
		return hits[i].Profile.Name < hits[j].Profile.Name
	})
	if maxHits > 0 && len(hits) > maxHits {
		hits = hits[:maxHits]
	}
	return hits
}
