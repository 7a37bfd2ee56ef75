package sources

import (
	"reflect"
	"testing"

	"biorank/internal/bio"
	"biorank/internal/prob"
)

func TestEntrezProteinCRUD(t *testing.T) {
	db := NewEntrezProtein()
	p := bio.Protein{Accession: "NP_001", Gene: "ABCC8", Seq: "ACDEFGHIK"}
	if err := db.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(p); err == nil {
		t.Fatal("duplicate accession accepted")
	}
	if err := db.Add(bio.Protein{Accession: "bad", Gene: "X", Seq: ""}); err == nil {
		t.Fatal("invalid protein accepted")
	}
	got, ok := db.ByAccession("NP_001")
	if !ok || got.Gene != "ABCC8" {
		t.Fatal("ByAccession failed")
	}
	if hits := db.ByName("abcc8"); len(hits) != 1 {
		t.Fatalf("ByName case-insensitive gene match failed: %v", hits)
	}
	if hits := db.ByName("NP_001"); len(hits) != 1 {
		t.Fatal("ByName accession match failed")
	}
	if hits := db.ByName("nothere"); len(hits) != 0 {
		t.Fatal("ByName matched nonexistent keyword")
	}
	if db.Len() != 1 || len(db.All()) != 1 {
		t.Fatal("size accounting wrong")
	}
}

// TestEntrezProteinByNameIndex pins ByName's contract over the
// lowercase-key index: matches by gene or accession in either case, in
// insertion order, and a record whose gene and accession both match
// returned once.
func TestEntrezProteinByNameIndex(t *testing.T) {
	db := NewEntrezProtein()
	for _, p := range []bio.Protein{
		{Accession: "NP_2", Gene: "CFTR", Seq: "ACD"},
		{Accession: "cftr", Gene: "CFTR", Seq: "ACD"}, // both gene and accession match
		{Accession: "NP_3", Gene: "GALT", Seq: "ACD"},
		{Accession: "NP_1", Gene: "cfTR", Seq: "ACD"},
	} {
		if err := db.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, p := range db.ByName("Cftr") {
		got = append(got, p.Accession)
	}
	if want := []string{"NP_2", "cftr", "NP_1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ByName(Cftr) = %v, want %v", got, want)
	}
	if got := db.ByName("np_3"); len(got) != 1 || got[0].Gene != "GALT" {
		t.Fatalf("ByName(np_3) = %v", got)
	}
	if got := db.ByName("ABCC8"); got != nil {
		t.Fatalf("ByName(ABCC8) = %v, want nil", got)
	}
}

func TestEntrezGeneCRUD(t *testing.T) {
	db := NewEntrezGene()
	r := bio.GeneRecord{ID: "EG1", Gene: "ABCC8", Status: "Reviewed", Functions: []bio.TermID{"GO:1"}}
	if err := db.Add(r); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(r); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if err := db.Add(bio.GeneRecord{}); err == nil {
		t.Fatal("empty ID accepted")
	}
	got, ok := db.ByID("EG1")
	if !ok || got.Status != "Reviewed" {
		t.Fatal("ByID failed")
	}
	if recs := db.ByGene("ABCC8"); len(recs) != 1 {
		t.Fatal("ByGene failed")
	}
	if db.Len() != 1 {
		t.Fatal("Len wrong")
	}
	if genes := db.Genes(); len(genes) != 1 || genes[0] != "ABCC8" {
		t.Fatalf("Genes() = %v", genes)
	}
}

func TestAmiGOStrongestEvidenceWins(t *testing.T) {
	db := NewAmiGO()
	stronger := func(a, b string) bool {
		return prob.AmiGOEvidence.Prob(a) > prob.AmiGOEvidence.Prob(b)
	}
	db.Add(Annotation{Term: "GO:1", Evidence: "IEA"}, stronger)
	db.Add(Annotation{Term: "GO:1", Evidence: "IDA"}, stronger)
	db.Add(Annotation{Term: "GO:1", Evidence: "NAS"}, stronger) // weaker: ignored
	a, ok := db.ByTerm("GO:1")
	if !ok || a.Evidence != "IDA" {
		t.Fatalf("strongest evidence not kept: %+v", a)
	}
	if db.Len() != 1 || len(db.Terms()) != 1 {
		t.Fatal("duplicate terms stored")
	}
	// nil comparator overwrites unconditionally.
	db.Add(Annotation{Term: "GO:1", Evidence: "ND"}, nil)
	a, _ = db.ByTerm("GO:1")
	if a.Evidence != "ND" {
		t.Fatal("nil comparator should overwrite")
	}
}

func TestIProClass(t *testing.T) {
	db := NewIProClass()
	db.Annotate("ABCC8", "GO:1")
	db.Annotate("ABCC8", "GO:2")
	db.Annotate("CFTR", "GO:3")
	if !db.Has("ABCC8", "GO:1") || db.Has("ABCC8", "GO:3") {
		t.Fatal("Has wrong")
	}
	if db.Count("ABCC8") != 2 || db.Count("ZZZ") != 0 {
		t.Fatal("Count wrong")
	}
	fns := db.Functions("ABCC8")
	if len(fns) != 2 || fns[0] != "GO:1" {
		t.Fatalf("Functions = %v", fns)
	}
	ps := db.Proteins()
	if len(ps) != 2 || ps[0] != "ABCC8" {
		t.Fatalf("Proteins = %v", ps)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPDB(t *testing.T) {
	db := NewPDB()
	if err := db.Add(PDBEntry{ID: "1ABC", Accession: "NP_1", Method: "X-RAY"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(PDBEntry{ID: "1ABC"}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := db.Add(PDBEntry{}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, ok := db.ByID("1ABC"); !ok || db.Len() != 1 {
		t.Fatal("lookup failed")
	}
}

func TestUniProt(t *testing.T) {
	db := NewUniProt()
	if err := db.Add(UniProtEntry{Accession: "Q09428", Gene: "ABCC8", Reviewed: true}); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(UniProtEntry{Accession: "Q09428"}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := db.Add(UniProtEntry{}); err == nil {
		t.Fatal("empty accession accepted")
	}
	if es := db.ByGene("ABCC8"); len(es) != 1 || !es[0].Reviewed {
		t.Fatal("ByGene failed")
	}
	if db.Len() != 1 {
		t.Fatal("Len wrong")
	}
}

func TestRegistryNames(t *testing.T) {
	r := &Registry{
		EntrezProtein: NewEntrezProtein(),
		EntrezGene:    NewEntrezGene(),
		AmiGO:         NewAmiGO(),
		Blast:         NewAligner(nil),
		Pfam:          NewProfileDB("Pfam", 0.5, 0),
		TIGRFAM:       NewProfileDB("TIGRFAM", 0.55, 0),
		CDD:           NewDomainDB("CDD", "CDDDomain", 0.4),
		PIRSF:         NewDomainDB("PIRSF", "PIRSFFamily", 0.5),
		SuperFamily:   NewDomainDB("SuperFamily", "Superfamily", 0.45),
		PDB:           NewPDB(),
		UniProt:       NewUniProt(),
	}
	names := r.Names()
	if len(names) != 11 {
		t.Fatalf("the paper integrates 11 sources; registry lists %d: %v", len(names), names)
	}
	partial := &Registry{AmiGO: NewAmiGO()}
	if got := partial.Names(); len(got) != 1 || got[0] != "AmiGO" {
		t.Fatalf("partial registry names = %v", got)
	}
}
