package sources

import (
	"fmt"
	"sort"
	"strings"

	"biorank/internal/bio"
)

// EntrezProtein is the protein sequence database: the entry point of
// every exploratory query in the paper (the user searches a protein by
// name). Schema: EntrezProtein(name, seq) with a gene cross-reference.
type EntrezProtein struct {
	byAccession map[string]bio.Protein
	// byName maps a lowercased gene name or accession to the accessions
	// of the records it names, in insertion order, each once.
	byName map[string][]string
	order  []string
}

// NewEntrezProtein returns an empty database.
func NewEntrezProtein() *EntrezProtein {
	return &EntrezProtein{
		byAccession: make(map[string]bio.Protein),
		byName:      make(map[string][]string),
	}
}

// Add stores a protein record; accessions must be unique.
func (db *EntrezProtein) Add(p bio.Protein) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, dup := db.byAccession[p.Accession]; dup {
		return fmt.Errorf("sources: duplicate protein accession %s", p.Accession)
	}
	db.byAccession[p.Accession] = p
	gene, acc := strings.ToLower(p.Gene), strings.ToLower(p.Accession)
	db.byName[gene] = append(db.byName[gene], p.Accession)
	if acc != gene {
		db.byName[acc] = append(db.byName[acc], p.Accession)
	}
	db.order = append(db.order, p.Accession)
	return nil
}

// ByName returns records whose gene name or accession matches the
// keyword (case-insensitive exact match), in insertion order — the
// "P.attr = value" lookup of an exploratory query.
func (db *EntrezProtein) ByName(keyword string) []bio.Protein {
	var out []bio.Protein
	for _, acc := range db.byName[strings.ToLower(keyword)] {
		out = append(out, db.byAccession[acc])
	}
	return out
}

// ByAccession returns the record with the given accession.
func (db *EntrezProtein) ByAccession(acc string) (bio.Protein, bool) {
	p, ok := db.byAccession[acc]
	return p, ok
}

// All returns every protein in insertion order (the BLAST corpus).
func (db *EntrezProtein) All() []bio.Protein {
	out := make([]bio.Protein, 0, len(db.order))
	for _, acc := range db.order {
		out = append(out, db.byAccession[acc])
	}
	return out
}

// Len returns the number of records.
func (db *EntrezProtein) Len() int { return len(db.byAccession) }

// EntrezGene is the curated gene database: gene-centric records carrying
// a curation status code and GO function annotations. Schema:
// EntrezGene(idEG, StatusCode, idGO); the status code drives the pr
// transformation of Section 2.
type EntrezGene struct {
	byID   map[string]bio.GeneRecord
	byGene map[string][]string // gene symbol -> record IDs
	order  []string
}

// NewEntrezGene returns an empty database.
func NewEntrezGene() *EntrezGene {
	return &EntrezGene{
		byID:   make(map[string]bio.GeneRecord),
		byGene: make(map[string][]string),
	}
}

// Add stores a record; IDs must be unique.
func (db *EntrezGene) Add(r bio.GeneRecord) error {
	if r.ID == "" {
		return fmt.Errorf("sources: gene record needs an ID")
	}
	if _, dup := db.byID[r.ID]; dup {
		return fmt.Errorf("sources: duplicate gene record %s", r.ID)
	}
	db.byID[r.ID] = r
	db.byGene[r.Gene] = append(db.byGene[r.Gene], r.ID)
	db.order = append(db.order, r.ID)
	return nil
}

// ByID resolves the idEG foreign key (as used by NCBIBlast2).
func (db *EntrezGene) ByID(id string) (bio.GeneRecord, bool) {
	r, ok := db.byID[id]
	return r, ok
}

// ByGene returns the records for a gene symbol, in insertion order.
func (db *EntrezGene) ByGene(gene string) []bio.GeneRecord {
	var out []bio.GeneRecord
	for _, id := range db.byGene[gene] {
		out = append(out, db.byID[id])
	}
	return out
}

// Len returns the number of records.
func (db *EntrezGene) Len() int { return len(db.byID) }

// Genes returns all gene symbols in sorted order.
func (db *EntrezGene) Genes() []string {
	out := make([]string, 0, len(db.byGene))
	for g := range db.byGene {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}
