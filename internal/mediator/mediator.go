// Package mediator implements BioRank's data-integration layer (Section
// 2): it wraps the eleven sources, applies the schema mappings of the
// mediated E/R schema (including the ternary→binary split of NCBIBlast),
// transforms record uncertainties into probabilities via the
// transformation functions of internal/prob, and materializes the
// probabilistic entity graph that exploratory queries run against.
//
// Node probabilities are p = ps·pr and edge probabilities q = qs·qr,
// where ps/qs are the user-tunable set-level confidences of this
// package's Config and pr/qr come from record attributes (status codes,
// evidence codes, e-values).
package mediator

import (
	"errors"
	"fmt"
	"strings"

	"biorank/internal/bio"
	"biorank/internal/er"
	"biorank/internal/graph"
	"biorank/internal/prob"
	"biorank/internal/query"
	"biorank/internal/sources"
)

// Entity set kinds of the mediated schema.
const (
	KindProtein     = "EntrezProtein"
	KindGene        = "EntrezGene"
	KindBlastHit    = "BlastHit"
	KindPfam        = "PfamFamily"
	KindTIGRFAM     = "TIGRFAMFamily"
	KindFunction    = "AmiGO"
	KindUniProt     = "UniProtEntry"
	KindPIRSF       = "PIRSFFamily"
	KindCDD         = "CDDDomain"
	KindSuperFamily = "Superfamily"
	KindStructure   = "PDBStructure"
)

// Config holds the user-tunable set-level confidences and integration
// limits. The defaults encode the domain knowledge reported in Section 2
// (e.g. "results from PIRSF are more accurate than Pfam"; "algorithms
// like those in Pfam [which respect residue adjacency] are believed to be
// more accurate" than BLAST).
type Config struct {
	// PS maps entity set kind -> set-level confidence ps.
	PS map[string]float64
	// QS maps relationship name -> set-level confidence qs.
	QS map[string]float64
	// BlastMaxHits caps BLAST hits per query sequence (the paper's
	// ABCC8 example returns 100).
	BlastMaxHits int
	// ProfileMaxHits caps profile-database hits per query sequence.
	ProfileMaxHits int
	// DefaultEvidence is the AmiGO evidence code assumed for functions
	// that have no annotation record.
	DefaultEvidence string

	// Ontology, when set, applies the Gene Ontology true-path rule
	// during integration: a record annotated with function f also
	// supports all of f's is-a ancestors, which join the answer set as
	// additional (more general) candidates linked by is-a edges.
	Ontology *bio.Ontology

	// Path toggles for ablation studies.
	DisableBlast    bool
	DisableProfiles bool
	DisableGeneLink bool
}

// Relationship names of the mediated schema (edge kinds in the entity
// graph).
const (
	RelGeneLink    = "EntrezProtein-EntrezGene" // FK via gene symbol
	RelBlast1      = "NCBIBlast1"               // seq1-seq2 similarity (e-value)
	RelBlast2      = "NCBIBlast2"               // seq2 -> idEG foreign key
	RelPfamMatch   = "PfamMatch"                // seq -> family (e-value)
	RelTIGRMatch   = "TIGRFAMMatch"             // seq -> family (e-value)
	RelAnnotation  = "Annotates"                // gene/family -> GO function
	RelUniProtLink = "EntrezProtein-UniProt"    // FK via gene symbol
	RelPIRSFMatch  = "PIRSFMatch"               // seq -> family (e-value)
	RelCDDMatch    = "CDDMatch"                 // seq -> domain (e-value)
	RelSFMatch     = "SuperFamilyMatch"         // seq -> superfamily (e-value)
	RelStructure   = "EntrezProtein-PDB"        // resolved structure
	RelIsA         = "IsA"                      // GO true-path generalization
)

// DefaultConfig returns the configuration used by all experiments.
func DefaultConfig() Config {
	return Config{
		PS: map[string]float64{
			KindProtein:     1.0,
			KindGene:        1.0,
			KindBlastHit:    1.0,
			KindPfam:        0.9, // profile DBs trusted slightly below curation
			KindTIGRFAM:     0.9,
			KindFunction:    1.0,
			KindUniProt:     1.0,
			KindPIRSF:       0.95, // "results from PIRSF are more accurate than Pfam" (Section 2)
			KindCDD:         0.85,
			KindSuperFamily: 0.85,
			KindStructure:   1.0,
		},
		QS: map[string]float64{
			RelGeneLink:    1.0,
			RelBlast1:      0.8, // BLAST ignores residue adjacency (Section 2)
			RelBlast2:      1.0, // foreign key
			RelPfamMatch:   0.9, // adjacency-aware matchers trusted more
			RelTIGRMatch:   0.9,
			RelAnnotation:  1.0,
			RelUniProtLink: 1.0,
			RelPIRSFMatch:  0.95,
			RelCDDMatch:    0.85,
			RelSFMatch:     0.85,
			RelStructure:   1.0,
			// The true-path rule is logically certain, but a slight
			// damping keeps specific terms ranked above the general
			// ancestors they imply.
			RelIsA: 0.9,
		},
		BlastMaxHits:    100,
		ProfileMaxHits:  25,
		DefaultEvidence: "IEA",
	}
}

// ps returns the set-level confidence for an entity kind (1 if unset).
func (c Config) ps(kind string) float64 {
	if v, ok := c.PS[kind]; ok {
		return v
	}
	return 1
}

// qs returns the set-level confidence for a relationship (1 if unset).
func (c Config) qs(rel string) float64 {
	if v, ok := c.QS[rel]; ok {
		return v
	}
	return 1
}

// Mediator integrates the sources into probabilistic entity graphs.
type Mediator struct {
	reg *sources.Registry
	cfg Config
}

// New returns a mediator over the given source registry.
func New(reg *sources.Registry, cfg Config) (*Mediator, error) {
	if reg == nil {
		return nil, fmt.Errorf("mediator: nil registry")
	}
	if reg.EntrezProtein == nil || reg.AmiGO == nil {
		return nil, fmt.Errorf("mediator: EntrezProtein and AmiGO sources are required")
	}
	return &Mediator{reg: reg, cfg: cfg}, nil
}

// Config returns the mediator's configuration.
func (m *Mediator) Config() Config { return m.cfg }

// Explore executes the exploratory query
// (EntrezProtein.name = keyword, {AmiGO}) end to end: it materializes the
// integrated neighborhood of the keyword and returns the probabilistic
// query graph whose answers are the candidate GO functions.
func (m *Mediator) Explore(keyword string) (*graph.QueryGraph, error) {
	g, err := m.Integrate(keyword)
	if err != nil {
		return nil, err
	}
	q := query.Exploratory{
		InputKind:   KindProtein,
		OutputKinds: []string{KindFunction},
		Keyword:     keyword,
	}
	return q.Run(g)
}

// Integrate materializes the probabilistic entity graph reachable from
// the proteins matching the keyword, following the integration paths of
// Figure 1: the direct gene-curation path, the BLAST similarity path, and
// the Pfam/TIGRFAM profile paths, all converging on AmiGO function
// records.
func (m *Mediator) Integrate(keyword string) (*graph.Graph, error) {
	prots := m.reg.EntrezProtein.ByName(keyword)
	if len(prots) == 0 {
		return nil, fmt.Errorf("mediator: no protein matches %q", keyword)
	}
	b := newBuilder(m)
	for _, p := range prots {
		b.addProtein(p)
	}
	return b.g, nil
}

// IntegrateAll materializes one union probabilistic entity graph covering
// every given keyword: the integration paths of all matched proteins are
// expanded into a single graph with nodes deduplicated by (kind, label),
// so evidence shared between keywords (genes, GO terms, profile families)
// meets at shared nodes. This is the world a live, incrementally mutated
// graph.Store serves — per-keyword query graphs are then carved out of it
// by an Exploratory query whose Match predicate selects that keyword's
// protein accessions (see Accessions).
//
// Keywords that match no protein are skipped; an error is returned only
// when nothing matches at all.
func (m *Mediator) IntegrateAll(keywords []string) (*graph.Graph, error) {
	b := newBuilder(m)
	matched := 0
	for _, kw := range keywords {
		prots := m.reg.EntrezProtein.ByName(kw)
		matched += len(prots)
		for _, p := range prots {
			b.addProtein(p)
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("mediator: no protein matches any of %d keywords", len(keywords))
	}
	return b.g, nil
}

// Accessions returns the accession labels of the protein records matching
// the keyword — the KindProtein node labels the keyword's exploratory
// query selects inside a union graph built by IntegrateAll.
func (m *Mediator) Accessions(keyword string) []string {
	prots := m.reg.EntrezProtein.ByName(keyword)
	out := make([]string, len(prots))
	for i, p := range prots {
		out[i] = p.Accession
	}
	return out
}

// ErrNoProtein is the error Live.Carve wraps for a keyword that selects
// no protein record.
var ErrNoProtein = errors.New("mediator: no protein matches")

// Live is live mode's keyword core: a union graph built by IntegrateAll,
// served from a mutable graph.Store, plus the keyword↔accession index
// built once over it. It is the one place a keyword's query graph is
// carved out of the live graph and a delta is mapped to the keywords it
// can affect.
type Live struct {
	Store *graph.Store
	// accessions maps a lower-cased query keyword to the protein
	// accession set its exploratory query selects in the union graph:
	// keywords match case-insensitively, as EntrezProtein.ByName does.
	accessions map[string]map[string]bool
	// keywords inverts it: the keywords whose answer sets depend on a
	// protein accession.
	keywords map[string][]string
}

// Live indexes the protein accessions of keywords over store, which must
// hold IntegrateAll's union graph for the same keywords or a graph
// recovered from its write-ahead log.
func (m *Mediator) Live(store *graph.Store, keywords []string) *Live {
	l := &Live{
		Store:      store,
		accessions: make(map[string]map[string]bool, len(keywords)),
		keywords:   make(map[string][]string),
	}
	for _, kw := range keywords {
		accs := m.Accessions(kw)
		if len(accs) == 0 {
			continue
		}
		set := make(map[string]bool, len(accs))
		for _, a := range accs {
			set[a] = true
			l.keywords[a] = append(l.keywords[a], kw)
		}
		l.accessions[strings.ToLower(kw)] = set
	}
	return l
}

// Carve returns the keyword's pruned query graph, carved out of a
// snapshot of the live graph: under the store's read lock the
// exploratory query clones the graph, selects the keyword's accessions
// as input records and prunes to the answer-directed subgraph. The
// keyword matches case-insensitively, like Explore's.
func (l *Live) Carve(keyword string) (*graph.QueryGraph, error) {
	accs := l.accessions[strings.ToLower(keyword)]
	if len(accs) == 0 {
		return nil, fmt.Errorf("%w %q", ErrNoProtein, keyword)
	}
	var (
		qg  *graph.QueryGraph
		err error
	)
	l.Store.View(func(g *graph.Graph) {
		qg, err = query.Exploratory{
			InputKind:   KindProtein,
			Match:       func(n graph.Node) bool { return accs[n.Label] },
			OutputKinds: []string{KindFunction},
			Keyword:     keyword,
		}.Run(g)
	})
	return qg, err
}

// Affected returns, each once and in no particular order, the keywords
// whose query graphs a delta that touched the given nodes may have
// changed: those selecting a protein record that can reach one of them.
// A record a delta added under an existing protein is reachable from
// that protein, so new evidence scopes exactly the keywords it can
// influence.
func (l *Live) Affected(nodes []graph.NodeID) []string {
	seen := make(map[string]bool)
	var out []string
	for _, acc := range l.Store.SourcesReaching(KindProtein, nodes) {
		for _, kw := range l.keywords[acc] {
			if !seen[kw] {
				seen[kw] = true
				out = append(out, kw)
			}
		}
	}
	return out
}

// builder accumulates the entity graph with nodes deduplicated by
// (kind, label) — converging evidence paths meet at shared nodes, which
// is what makes redundancy visible to the ranking methods.
type builder struct {
	m *Mediator
	g *graph.Graph
	// edgeSeen dedupes relationship instances; a relationship between
	// the same two records discovered through two traversal orders is
	// one edge.
	edgeSeen map[edgeKey]bool
	// expandedGene avoids re-walking a gene record's annotations.
	expandedGene map[graph.NodeID]bool
}

type edgeKey struct {
	from, to graph.NodeID
	rel      string
}

func newBuilder(m *Mediator) *builder {
	return &builder{
		m:            m,
		g:            graph.New(256, 512),
		edgeSeen:     make(map[edgeKey]bool),
		expandedGene: make(map[graph.NodeID]bool),
	}
}

// node returns the node for (kind,label), creating it with probability p
// on first sight.
func (b *builder) node(kind, label string, p float64) graph.NodeID {
	if id, ok := b.g.Lookup(kind, label); ok {
		return id
	}
	return b.g.AddNode(kind, label, prob.Clamp01(p))
}

// edge adds a deduplicated edge.
func (b *builder) edge(from, to graph.NodeID, rel string, q float64) {
	k := edgeKey{from: from, to: to, rel: rel}
	if b.edgeSeen[k] {
		return
	}
	b.edgeSeen[k] = true
	b.g.AddEdge(from, to, rel, prob.Clamp01(q))
}

// addProtein expands all integration paths from one protein record.
func (b *builder) addProtein(p bio.Protein) graph.NodeID {
	cfg := b.m.cfg
	pn := b.node(KindProtein, p.Accession, cfg.ps(KindProtein))

	// Path 1: direct curation via EntrezGene.
	if !cfg.DisableGeneLink && b.m.reg.EntrezGene != nil {
		for _, rec := range b.m.reg.EntrezGene.ByGene(p.Gene) {
			gn := b.geneNode(rec)
			b.edge(pn, gn, RelGeneLink, cfg.qs(RelGeneLink))
		}
	}

	// Path 2: BLAST similarity to other proteins, whose genes carry
	// annotations (ternary NCBIBlast split into NCBIBlast1/NCBIBlast2).
	if !cfg.DisableBlast && b.m.reg.Blast != nil && b.m.reg.EntrezGene != nil {
		for _, hit := range b.m.reg.Blast.Search(p.Seq, cfg.BlastMaxHits) {
			if hit.Subject.Accession == p.Accession {
				continue // self-hit adds no evidence
			}
			hn := b.node(KindBlastHit, hit.Subject.Accession, cfg.ps(KindBlastHit))
			b.edge(pn, hn, RelBlast1, cfg.qs(RelBlast1)*prob.EValueProb(hit.EValue))
			for _, rec := range b.m.reg.EntrezGene.ByGene(hit.Subject.Gene) {
				gn := b.geneNode(rec)
				b.edge(hn, gn, RelBlast2, cfg.qs(RelBlast2))
			}
		}
	}

	// Paths 3-4: profile databases.
	if !cfg.DisableProfiles {
		b.profilePath(pn, p, b.m.reg.Pfam, KindPfam, RelPfamMatch)
		b.profilePath(pn, p, b.m.reg.TIGRFAM, KindTIGRFAM, RelTIGRMatch)
	}

	// Extended sources (Section 2's source table): curated UniProt
	// entries linked by gene, further profile-matched databases, and
	// resolved PDB structures. These sources are optional — a registry
	// without them integrates exactly the Figure 1 subset.
	if db := b.m.reg.UniProt; db != nil {
		for _, e := range db.ByGene(p.Gene) {
			pr := 0.5 // TrEMBL-like unreviewed entry
			if e.Reviewed {
				pr = 1.0
			}
			un := b.node(KindUniProt, e.Accession, cfg.ps(KindUniProt)*pr)
			b.edge(pn, un, RelUniProtLink, cfg.qs(RelUniProtLink))
			b.annotate(un, e.Functions)
		}
	}
	if !cfg.DisableProfiles {
		if db := b.m.reg.PIRSF; db != nil {
			b.profilePath(pn, p, db.ProfileDB, KindPIRSF, RelPIRSFMatch)
		}
		if db := b.m.reg.CDD; db != nil {
			b.profilePath(pn, p, db.ProfileDB, KindCDD, RelCDDMatch)
		}
		if db := b.m.reg.SuperFamily; db != nil {
			b.profilePath(pn, p, db.ProfileDB, KindSuperFamily, RelSFMatch)
		}
	}
	if db := b.m.reg.PDB; db != nil {
		// PDB exposes one entity set and no outgoing relationships
		// (paper's table: #R = 0); structures corroborate the protein
		// record but lead nowhere, so query pruning removes them from
		// answer-directed graphs.
		for _, id := range b.pdbStructures(p.Accession) {
			sn := b.node(KindStructure, id, cfg.ps(KindStructure))
			b.edge(pn, sn, RelStructure, cfg.qs(RelStructure))
		}
	}
	return pn
}

// profilePath expands one profile-database integration path.
func (b *builder) profilePath(pn graph.NodeID, p bio.Protein, db *sources.ProfileDB, kind, rel string) {
	if db == nil {
		return
	}
	cfg := b.m.cfg
	for _, hit := range db.Match(p.Seq, cfg.ProfileMaxHits) {
		fn := b.node(kind, hit.Profile.Name, cfg.ps(kind))
		b.edge(pn, fn, rel, cfg.qs(rel)*prob.EValueProb(hit.EValue))
		b.annotate(fn, hit.Profile.Functions)
	}
}

// pdbStructures scans the PDB source for structures resolving the given
// accession. The PDB store is small; a linear scan through known IDs is
// performed via the source's lookup by trying the registry's recorded
// entries (the source exposes only ByID, mirroring its flat schema).
func (b *builder) pdbStructures(accession string) []string {
	db := b.m.reg.PDB
	if db == nil {
		return nil
	}
	return db.ByAccession(accession)
}

// geneNode creates/returns the node for a gene record and expands its
// function annotations once.
func (b *builder) geneNode(rec bio.GeneRecord) graph.NodeID {
	cfg := b.m.cfg
	pr := prob.EntrezGeneStatus.Prob(rec.Status)
	gn := b.node(KindGene, rec.ID, cfg.ps(KindGene)*pr)
	if !b.expandedGene[gn] {
		b.expandedGene[gn] = true
		b.annotate(gn, rec.Functions)
	}
	return gn
}

// annotate links a record node to its GO function nodes, applying the
// true-path rule when an ontology is configured.
func (b *builder) annotate(from graph.NodeID, funcs []bio.TermID) {
	cfg := b.m.cfg
	for _, f := range funcs {
		fn := b.functionNode(f)
		b.edge(from, fn, RelAnnotation, cfg.qs(RelAnnotation))
		if cfg.Ontology != nil {
			b.expandAncestors(fn, f)
		}
	}
}

// functionNode creates/returns the AmiGO node for a term, deriving its
// probability from the term's evidence code.
func (b *builder) functionNode(f bio.TermID) graph.NodeID {
	cfg := b.m.cfg
	ev := cfg.DefaultEvidence
	if a, ok := b.m.reg.AmiGO.ByTerm(f); ok {
		ev = a.Evidence
	}
	pr := prob.AmiGOEvidence.Prob(ev)
	return b.node(KindFunction, string(f), cfg.ps(KindFunction)*pr)
}

// expandAncestors adds is-a edges from a function node toward its
// (transitively) more general ontology terms. Dedup through edgeSeen
// keeps the walk linear: once a term's parent edges exist, deeper
// recursion is skipped.
func (b *builder) expandAncestors(fn graph.NodeID, f bio.TermID) {
	cfg := b.m.cfg
	term, ok := cfg.Ontology.Term(f)
	if !ok {
		return
	}
	for _, p := range term.Parents {
		parent := b.functionNode(p)
		key := edgeKey{from: fn, to: parent, rel: RelIsA}
		if b.edgeSeen[key] {
			continue
		}
		b.edge(fn, parent, RelIsA, cfg.qs(RelIsA))
		b.expandAncestors(parent, p)
	}
}

// MediatedSchema returns the mediated E/R schema of Figure 1 with the
// configured set-level confidences, for reducibility analysis via
// Theorem 3.2.
func (m *Mediator) MediatedSchema() (*er.Schema, error) {
	s := er.NewSchema()
	cfg := m.cfg
	ents := []er.EntitySet{
		{Name: query.QueryKind, Source: "-", PS: 1, KeyAttr: "keyword"},
		{Name: KindProtein, Source: "EntrezProtein", PS: cfg.ps(KindProtein), KeyAttr: "name", Attrs: []string{"seq"}},
		{Name: KindGene, Source: "EntrezGene", PS: cfg.ps(KindGene), KeyAttr: "idEG", Attrs: []string{"StatusCode", "idGO"}},
		{Name: KindBlastHit, Source: "NCBIBlast", PS: cfg.ps(KindBlastHit), KeyAttr: "seq2"},
		{Name: KindPfam, Source: "Pfam", PS: cfg.ps(KindPfam), KeyAttr: "family"},
		{Name: KindTIGRFAM, Source: "TIGRFAM", PS: cfg.ps(KindTIGRFAM), KeyAttr: "family"},
		{Name: KindFunction, Source: "AmiGO", PS: cfg.ps(KindFunction), KeyAttr: "idGO", Attrs: []string{"EvidenceCode"}},
	}
	for _, e := range ents {
		if err := s.AddEntity(e); err != nil {
			return nil, err
		}
	}
	rels := []er.Relationship{
		{Name: "match", From: query.QueryKind, To: KindProtein, Card: er.OneToMany, QS: 1},
		{Name: RelGeneLink, From: KindProtein, To: KindGene, Card: er.OneToMany, QS: cfg.qs(RelGeneLink)},
		{Name: RelBlast1, From: KindProtein, To: KindBlastHit, Card: er.OneToMany, QS: cfg.qs(RelBlast1)},
		{Name: RelBlast2, From: KindBlastHit, To: KindGene, Card: er.ManyToOne, QS: cfg.qs(RelBlast2)},
		{Name: RelPfamMatch, From: KindProtein, To: KindPfam, Card: er.OneToMany, QS: cfg.qs(RelPfamMatch)},
		{Name: RelTIGRMatch, From: KindProtein, To: KindTIGRFAM, Card: er.OneToMany, QS: cfg.qs(RelTIGRMatch)},
		// The final fan-in to shared GO terms is the [m:n] relationship
		// that makes the whole schema irreducible (Section 4, "Closed
		// solution"), while each single target's subgraph sees it as
		// [n:1] and remains reducible.
		{Name: RelAnnotation, From: KindGene, To: KindFunction, Card: er.ManyToMany, QS: cfg.qs(RelAnnotation)},
	}
	for _, r := range rels {
		if err := s.AddRelationship(r); err != nil {
			return nil, err
		}
	}
	return s, nil
}
