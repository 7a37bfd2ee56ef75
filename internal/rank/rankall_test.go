package rank

import (
	"context"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
)

// rankAllCases returns a spread of query graphs: the two Figure 4 micro
// graphs and a handful of random DAGs.
func rankAllCases(t *testing.T) []*graph.QueryGraph {
	t.Helper()
	rng := prob.NewRNG(97)
	cases := []*graph.QueryGraph{fig4a(), fig4b()}
	for i := 0; i < 4; i++ {
		cases = append(cases, randomDAG(rng))
	}
	return cases
}

// TestRankAllMatchesPerMethod drives all five semantics through RankAll
// and checks score equality with the sequential one-ranker-at-a-time
// path, for both the concurrent and the Sequential execution modes.
// RankAll serves reliability on the block kernel, so the reference is
// the block-kernel MonteCarlo.
func TestRankAllMatchesPerMethod(t *testing.T) {
	for ci, qg := range rankAllCases(t) {
		opts := AllOptions{Trials: 2000, Seed: uint64(ci + 1)}
		want := map[string]Result{}
		rankers := Methods(opts.Trials, opts.Seed)
		rankers[0] = &MonteCarlo{Trials: opts.Trials, Seed: opts.Seed, Worlds: true}
		for _, r := range rankers {
			res, err := r.RankCtx(context.Background(), qg)
			if err != nil {
				t.Fatalf("case %d method %s: %v", ci, r.Name(), err)
			}
			want[r.Name()] = res
		}
		for _, sequential := range []bool{false, true} {
			opts.Sequential = sequential
			got, err := RankAllCtx(context.Background(), qg, opts)
			if err != nil {
				t.Fatalf("case %d sequential=%v: %v", ci, sequential, err)
			}
			if len(got) != len(MethodNames) {
				t.Fatalf("case %d: got %d methods, want %d", ci, len(got), len(MethodNames))
			}
			for _, m := range MethodNames {
				w, g := want[m], got[m]
				if len(w.Scores) != len(g.Scores) {
					t.Fatalf("case %d method %s: score count %d vs %d", ci, m, len(g.Scores), len(w.Scores))
				}
				for i := range w.Scores {
					if w.Scores[i] != g.Scores[i] {
						t.Errorf("case %d method %s answer %d: RankAll %v != per-method %v (sequential=%v)",
							ci, m, i, g.Scores[i], w.Scores[i], sequential)
					}
				}
			}
		}
	}
}

// TestRankAllExactAndReduce covers the reliability variants RankAll can
// be configured with; the deprecated Reduce is ignored, so the pass
// simulates the full graph on the block kernel.
func TestRankAllExactAndReduce(t *testing.T) {
	qg := fig4b()
	exact, err := RankAllCtx(context.Background(), qg, AllOptions{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	wantExact, err := (Exact{}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantExact.Scores {
		if exact["reliability"].Scores[i] != wantExact.Scores[i] {
			t.Errorf("exact reliability answer %d: %v != %v", i, exact["reliability"].Scores[i], wantExact.Scores[i])
		}
	}

	flagged, err := RankAllCtx(context.Background(), qg, AllOptions{Trials: 5000, Seed: 3, Reduce: true})
	if err != nil {
		t.Fatal(err)
	}
	wantMC, err := (&MonteCarlo{Trials: 5000, Seed: 3, Worlds: true}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantMC.Scores {
		if flagged["reliability"].Scores[i] != wantMC.Scores[i] {
			t.Errorf("reduce-flagged reliability answer %d: %v != %v", i, flagged["reliability"].Scores[i], wantMC.Scores[i])
		}
	}
}

// TestRankAllParallelMCDeterministic checks that sharded Monte Carlo
// inside RankAll reproduces the directly sharded block-kernel scores for
// a fixed (seed, workers) pair, run after run.
func TestRankAllParallelMCDeterministic(t *testing.T) {
	qg := randomDAG(prob.NewRNG(31))
	opts := AllOptions{Trials: 20000, Seed: 17, MCWorkers: 4, Methods: []string{"reliability"}}
	first, err := RankAllCtx(context.Background(), qg, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := (&MonteCarlo{Trials: 20000, Seed: 17, Workers: 4, Worlds: true}).RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Scores {
		if first["reliability"].Scores[i] != direct.Scores[i] {
			t.Fatalf("answer %d: RankAll %v != direct sharded MC %v", i, first["reliability"].Scores[i], direct.Scores[i])
		}
	}
	second, err := RankAllCtx(context.Background(), qg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Scores {
		if first["reliability"].Scores[i] != second["reliability"].Scores[i] {
			t.Fatalf("answer %d not deterministic across runs", i)
		}
	}
}

// TestRankAllSubsetAndErrors covers method subsetting and failure modes.
func TestRankAllSubsetAndErrors(t *testing.T) {
	qg := fig4a()
	got, err := RankAllCtx(context.Background(), qg, AllOptions{Trials: 100, Methods: []string{"inedge", "pathcount"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 methods, got %d", len(got))
	}
	if _, ok := got["reliability"]; ok {
		t.Fatal("reliability should not have been computed")
	}
	if _, err := RankAllCtx(context.Background(), qg, AllOptions{Methods: []string{"nope"}}); err == nil {
		t.Fatal("unknown method should error")
	}
	if _, err := RankAllCtx(context.Background(), nil, AllOptions{}); err == nil {
		t.Fatal("nil graph should error")
	}
}
