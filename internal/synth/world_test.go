package synth

import (
	"context"
	"testing"

	"biorank/internal/bio"
	"biorank/internal/metrics"
	"biorank/internal/rank"
)

func TestScenario12CandidateCountsExact(t *testing.T) {
	w := NewScenario12(1)
	m, err := w.Mediator()
	if err != nil {
		t.Fatal(err)
	}
	for i, cs := range w.Cases {
		qg, err := m.Explore(cs.Protein)
		if err != nil {
			t.Fatalf("%s: %v", cs.Protein, err)
		}
		want := map[bio.TermID]bool{}
		for _, f := range cs.Candidates() {
			want[f] = true
		}
		if len(qg.Answers) != len(want) {
			t.Errorf("%s: %d candidates, want %d (Table 1 row %d)",
				cs.Protein, len(qg.Answers), len(want), i)
		}
		for _, a := range qg.Answers {
			if !want[bio.TermID(qg.Node(a).Label)] {
				t.Errorf("%s: unplanted candidate %s", cs.Protein, qg.Node(a).Label)
			}
		}
	}
}

func TestScenario12MatchesTable1(t *testing.T) {
	w := NewScenario12(1)
	if len(w.Cases) != 20 {
		t.Fatalf("want 20 cases, got %d", len(w.Cases))
	}
	for i, cs := range w.Cases {
		row := Table1[i]
		if cs.Protein != row.Protein {
			t.Errorf("case %d protein %s, want %s", i, cs.Protein, row.Protein)
		}
		if len(cs.WellKnown) != row.Golden {
			t.Errorf("%s: %d golden, want %d", cs.Protein, len(cs.WellKnown), row.Golden)
		}
		if got := len(cs.Candidates()); got != row.Candidates {
			t.Errorf("%s: %d candidates, want %d", cs.Protein, got, row.Candidates)
		}
		if w.Golden.Count(cs.Protein) != row.Golden {
			t.Errorf("%s: iProClass count %d, want %d", cs.Protein, w.Golden.Count(cs.Protein), row.Golden)
		}
	}
	// Table 2 emerging functions present on the right proteins.
	withEmerging := 0
	for _, cs := range w.Cases {
		if len(cs.Emerging) > 0 {
			withEmerging++
		}
	}
	if withEmerging != 3 {
		t.Errorf("%d proteins with emerging functions, want 3", withEmerging)
	}
}

func TestScenario3CandidateCountsExact(t *testing.T) {
	w := NewScenario3(2)
	m, err := w.Mediator()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Cases) != 11 {
		t.Fatalf("want 11 cases, got %d", len(w.Cases))
	}
	for i, cs := range w.Cases {
		row := Table3[i]
		qg, err := m.Explore(cs.Protein)
		if err != nil {
			t.Fatalf("%s: %v", cs.Protein, err)
		}
		if len(qg.Answers) != row.Candidates {
			t.Errorf("%s: %d candidates, want %d", cs.Protein, len(qg.Answers), row.Candidates)
		}
		// The expert-assigned function must be a candidate.
		found := false
		for _, a := range qg.Answers {
			if bio.TermID(qg.Node(a).Label) == row.Function {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: relevant function %s not reachable", cs.Protein, row.Function)
		}
	}
}

func TestWorldDeterministic(t *testing.T) {
	w1 := NewScenario12(7)
	w2 := NewScenario12(7)
	q1, err := w1.Explore("ABCC8")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := w2.Explore("ABCC8")
	if err != nil {
		t.Fatal(err)
	}
	if q1.NumNodes() != q2.NumNodes() || q1.NumEdges() != q2.NumEdges() {
		t.Fatalf("same seed produced different graphs: %d/%d vs %d/%d nodes/edges",
			q1.NumNodes(), q1.NumEdges(), q2.NumNodes(), q2.NumEdges())
	}
	w3 := NewScenario12(8)
	q3, err := w3.Explore("ABCC8")
	if err != nil {
		t.Fatal(err)
	}
	if q1.NumNodes() == q3.NumNodes() && q1.NumEdges() == q3.NumEdges() {
		t.Log("different seeds produced identical graph sizes (possible, not a failure)")
	}
}

func TestScenario1RankingBeatsRandom(t *testing.T) {
	// A fast shape check on one protein: reliability must separate
	// well-known functions from the rest far better than chance.
	w := NewScenario12(1)
	cs := w.Cases[0] // ABCC8
	qg, err := w.Explore(cs.Protein)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&rank.MonteCarlo{Trials: 2000, Seed: 3}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]bool{}
	for _, f := range cs.WellKnown {
		golden[string(f)] = true
	}
	items := make([]metrics.Item, len(qg.Answers))
	for i, a := range qg.Answers {
		items[i] = metrics.Item{
			Label:    qg.Node(a).Label,
			Score:    res.Scores[i],
			Relevant: golden[qg.Node(a).Label],
		}
	}
	ap := metrics.AveragePrecision(items)
	random := metrics.RandomAP(len(cs.WellKnown), len(qg.Answers))
	if ap < random+0.2 {
		t.Fatalf("reliability AP %v barely beats random %v", ap, random)
	}
}

func TestScenario2EmergingHasSingleStrongPath(t *testing.T) {
	w := NewScenario12(1)
	qg, err := w.Explore("ABCC8")
	if err != nil {
		t.Fatal(err)
	}
	ie, err := (rank.InEdge{}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := (&rank.MonteCarlo{Trials: 4000, Seed: 9}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	emerging := map[string]bool{}
	for _, f := range EmergingFor("ABCC8") {
		emerging[string(f)] = true
	}
	for i, a := range qg.Answers {
		if !emerging[qg.Node(a).Label] {
			continue
		}
		if ie.Scores[i] != 1 {
			t.Errorf("emerging %s has %v in-edges, want exactly 1", qg.Node(a).Label, ie.Scores[i])
		}
		if rel.Scores[i] < 0.3 {
			t.Errorf("emerging %s reliability %v, want a strong single path", qg.Node(a).Label, rel.Scores[i])
		}
	}
}
