package query_test

import (
	"testing"

	"biorank/internal/graph"
	"biorank/internal/mediator"
	"biorank/internal/query"
	"biorank/internal/synth"
)

// TestResolvesMatchCloningRun compares both resolve paths with the
// cloning reference for every keyword of the demo, hypothetical and
// full worlds: Mediator.Explore against CloningRun over the keyword's
// integration, and the live carve (mediator.Live.Carve) against
// CloningRun over the union graph it carves from.
func TestResolvesMatchCloningRun(t *testing.T) {
	worlds := []struct {
		name string
		w    *synth.World
	}{
		{"demo", synth.NewScenario12(1)},
		{"hypothetical", synth.NewScenario3(1)},
		{"full", synth.NewExtendedWorld(1)},
	}
	for _, w := range worlds {
		med, err := w.w.Mediator()
		if err != nil {
			t.Fatal(err)
		}
		var keywords []string
		for _, c := range w.w.Cases {
			keywords = append(keywords, c.Protein)
		}
		union, err := med.IntegrateAll(keywords)
		if err != nil {
			t.Fatal(err)
		}
		live := med.Live(graph.NewStore(union), keywords)
		for _, kw := range keywords {
			got, err := med.Explore(kw)
			if err != nil {
				t.Fatalf("%s/%s: explore: %v", w.name, kw, err)
			}
			g, err := med.Integrate(kw)
			if err != nil {
				t.Fatal(err)
			}
			want, err := query.Exploratory{
				InputKind:   mediator.KindProtein,
				OutputKinds: []string{mediator.KindFunction},
				Keyword:     kw,
			}.CloningRun(g)
			if err != nil {
				t.Fatal(err)
			}
			if diff := query.SameQueryGraph(got, want); diff != "" {
				t.Errorf("%s/%s explore: %s", w.name, kw, diff)
			}

			got, err = live.Carve(kw)
			if err != nil {
				t.Fatalf("%s/%s: carve: %v", w.name, kw, err)
			}
			accs := map[string]bool{}
			for _, a := range med.Accessions(kw) {
				accs[a] = true
			}
			live.Store.View(func(g *graph.Graph) {
				want, err = query.Exploratory{
					InputKind:   mediator.KindProtein,
					Match:       func(n graph.Node) bool { return accs[n.Label] },
					OutputKinds: []string{mediator.KindFunction},
					Keyword:     kw,
				}.CloningRun(g)
			})
			if err != nil {
				t.Fatal(err)
			}
			if diff := query.SameQueryGraph(got, want); diff != "" {
				t.Errorf("%s/%s live carve: %s", w.name, kw, diff)
			}
		}
	}
}
