package synth

import (
	"context"
	"testing"

	"biorank/internal/bio"
	"biorank/internal/graph"
	"biorank/internal/mediator"
	"biorank/internal/rank"
)

func TestExtendedWorldAllSourcesPresent(t *testing.T) {
	w := NewExtendedWorld(5)
	names := w.Registry.Names()
	if len(names) != 11 {
		t.Fatalf("extended world should expose all 11 sources, got %v", names)
	}
}

func TestExtendedWorldIntegratesAllPaths(t *testing.T) {
	w := NewExtendedWorld(5)
	m, err := w.Mediator()
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.Integrate("KCNJ11")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, k := range g.Kinds() {
		kinds[k] = true
	}
	for _, want := range []string{
		mediator.KindProtein, mediator.KindGene, mediator.KindFunction,
		mediator.KindBlastHit, mediator.KindPfam, mediator.KindTIGRFAM,
		mediator.KindUniProt, mediator.KindPIRSF, mediator.KindCDD,
		mediator.KindSuperFamily, mediator.KindStructure,
	} {
		if !kinds[want] {
			t.Errorf("integrated graph missing %s nodes (have %v)", want, g.Kinds())
		}
	}
}

func TestExtendedWorldQueryAndRank(t *testing.T) {
	w := NewExtendedWorld(5)
	m, err := w.Mediator()
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range w.Cases {
		qg, err := m.Explore(cs.Protein)
		if err != nil {
			t.Fatalf("%s: %v", cs.Protein, err)
		}
		// All planted candidates reachable.
		want := map[bio.TermID]bool{}
		for _, f := range cs.Candidates() {
			want[f] = true
		}
		if len(qg.Answers) != len(want) {
			t.Errorf("%s: %d answers, want %d", cs.Protein, len(qg.Answers), len(want))
		}
		// PDB structures lead nowhere: pruning must remove them.
		for i := 0; i < qg.NumNodes(); i++ {
			if qg.Node(graph.NodeID(i)).Kind == mediator.KindStructure {
				t.Error("PDB structure survived answer-directed pruning")
			}
		}
		// Golden functions must rank above random under reliability.
		res, err := (&rank.MonteCarlo{Trials: 3000, Seed: 2}).RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		golden := map[string]bool{}
		for _, f := range cs.WellKnown {
			golden[string(f)] = true
		}
		topGolden := 0
		type scored struct {
			label string
			s     float64
		}
		var all []scored
		for i, a := range qg.Answers {
			all = append(all, scored{qg.Node(a).Label, res.Scores[i]})
		}
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				if all[j].s > all[i].s {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		for i := 0; i < len(cs.WellKnown) && i < len(all); i++ {
			if golden[all[i].label] {
				topGolden++
			}
		}
		if topGolden < len(cs.WellKnown)/2 {
			t.Errorf("%s: only %d/%d golden functions in top-k", cs.Protein, topGolden, len(cs.WellKnown))
		}
	}
}

func TestExtendedWorldUniProtPathContributes(t *testing.T) {
	// Disabling the gene link must leave the UniProt-supplied functions
	// reachable (they overlap only partially).
	w := NewExtendedWorld(5)
	cfg := w.Config
	cfg.DisableGeneLink = true
	cfg.DisableBlast = true
	cfg.DisableProfiles = true
	w2 := &World{Registry: w.Registry, Golden: w.Golden, Cases: w.Cases, Config: cfg}
	m, err := w2.Mediator()
	if err != nil {
		t.Fatal(err)
	}
	qg, err := m.Explore("KCNJ11")
	if err != nil {
		t.Fatal(err)
	}
	// UniProt carries wellKnown[2:] — 4 functions.
	if len(qg.Answers) != 4 {
		t.Fatalf("UniProt-only integration should reach 4 functions, got %d", len(qg.Answers))
	}
}
