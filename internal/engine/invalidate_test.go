package engine

import (
	"context"
	"math"
	"sync"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/kernel"
	"biorank/internal/rank"
)

// chainStore builds a live store over the minimal interesting topology —
//
//	Q/s(1) ──0.9──▶ X/x(p0) ──0.8──▶ A/a(1)
//	Q/s2(1) ──0.7──▶ Y/y(0.5) ──0.6──▶ A/a2(1)
//
// two disjoint query chains, so a delta on one source's chain must not
// disturb the other's cache entries.
func chainStore() *graph.Store {
	g := graph.New(6, 4)
	s := g.AddNode("Q", "s", 1)
	x := g.AddNode("X", "x", 0.5)
	a := g.AddNode("A", "a", 1)
	s2 := g.AddNode("Q", "s2", 1)
	y := g.AddNode("Y", "y", 0.5)
	a2 := g.AddNode("A", "a2", 1)
	g.AddEdge(s, x, "r", 0.9)
	g.AddEdge(x, a, "r", 0.8)
	g.AddEdge(s2, y, "r", 0.7)
	g.AddEdge(y, a2, "r", 0.6)
	return graph.NewStore(g)
}

// storeResolver resolves "s" and "s2" against live snapshots of the
// store, the way a live mediator does: clone under the read lock, stamp
// the store version, answer set = the chain's terminal node.
func storeResolver(st *graph.Store) Resolver {
	return ResolverFunc(func(source string) (*graph.QueryGraph, error) {
		var qg *graph.QueryGraph
		var err error
		st.View(func(g *graph.Graph) {
			c := g.Clone()
			src, _ := c.Lookup("Q", source)
			var ans graph.NodeID
			if source == "s" {
				ans, _ = c.Lookup("A", "a")
			} else {
				ans, _ = c.Lookup("A", "a2")
			}
			qg, err = graph.NewQueryGraph(c, src, []graph.NodeID{ans})
			if err == nil {
				qg = qg.Prune() // real resolvers serve pruned graphs
			}
		})
		return qg, err
	})
}

func setX(t testing.TB, st *graph.Store, p float64) graph.DeltaResult {
	t.Helper()
	res, err := st.Apply(graph.Delta{Source: "test", Ops: []graph.Op{
		{Kind: graph.OpSetNodeP, Node: graph.NodeRef{Kind: "X", Label: "x"}, P: p},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScopedInvalidation pins the tentpole behavior: after a delta, only
// the sources that can reach an affected node lose their cache entries;
// everyone else keeps hitting.
func TestScopedInvalidation(t *testing.T) {
	st := chainStore()
	e := New(storeResolver(st), Config{Workers: 2})
	defer e.Close()

	opts := Options{Trials: 200, Seed: 1}
	reqS := Request{Source: "s", Methods: []string{"reliability"}, Options: opts}
	reqS2 := Request{Source: "s2", Methods: []string{"reliability"}, Options: opts}
	for _, r := range e.QueryBatch([]Request{reqS, reqS2}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	res := setX(t, st, 0.9)
	affected := st.SourcesReaching("Q", res.Affected)
	if len(affected) != 1 || affected[0] != "s" {
		t.Fatalf("affected sources = %v, want [s]", affected)
	}
	if n := e.InvalidateSources(affected); n != 1 {
		t.Fatalf("InvalidateSources removed %d entries, want 1", n)
	}
	if cs := e.CacheStats(); cs.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", cs.Invalidations)
	}

	// The unaffected source still hits; the affected one recomputes.
	r := e.Rank(reqS2)
	if r.Err != nil || !r.Cached["reliability"] {
		t.Fatalf("unaffected source missed the cache (err %v, cached %v)", r.Err, r.Cached)
	}
	r = e.Rank(reqS)
	if r.Err != nil || r.Cached["reliability"] {
		t.Fatalf("affected source served from cache (err %v, cached %v)", r.Err, r.Cached)
	}
}

// TestPlanPatchOnProbDelta pins the incremental plan path: after a
// probability-only delta the plan cache misses on content but patches
// the topology-equal predecessor instead of recompiling, and the patched
// plan's scores are bit-identical to a from-scratch engine's.
func TestPlanPatchOnProbDelta(t *testing.T) {
	st := chainStore()
	e := New(storeResolver(st), Config{Workers: 1, CacheSize: -1})
	defer e.Close()

	req := Request{Source: "s", Methods: []string{"reliability"}, Options: Options{Trials: 500, Seed: 11}}
	if r := e.Rank(req); r.Err != nil {
		t.Fatal(r.Err)
	}
	if ps := e.PlanStats(); ps.Patches != 0 || ps.Misses != 1 {
		t.Fatalf("plan stats before delta: %+v", ps)
	}

	setX(t, st, 0.42)
	r := e.Rank(req)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if ps := e.PlanStats(); ps.Patches != 1 {
		t.Fatalf("plan stats after prob-only delta: %+v, want 1 patch", ps)
	}

	// From-scratch engine over the same graph state: bit-identical.
	e2 := New(storeResolver(st), Config{Workers: 1, CacheSize: -1})
	defer e2.Close()
	r2 := e2.Rank(req)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if ps := e2.PlanStats(); ps.Patches != 0 {
		t.Fatalf("fresh engine should compile, stats %+v", ps)
	}
	a, b := r.Results["reliability"].Scores, r2.Results["reliability"].Scores
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("patched-plan score %v != compiled-plan score %v", a[i], b[i])
		}
	}

	// A topology delta must recompile, not patch.
	if _, err := st.Apply(graph.Delta{Source: "test", Ops: []graph.Op{
		{Kind: graph.OpUpsertNode, Node: graph.NodeRef{Kind: "X", Label: "x2"}, P: 0.5},
		{Kind: graph.OpUpsertEdge, From: graph.NodeRef{Kind: "Q", Label: "s"}, To: graph.NodeRef{Kind: "X", Label: "x2"}, Rel: "r", P: 0.5},
		{Kind: graph.OpUpsertEdge, From: graph.NodeRef{Kind: "X", Label: "x2"}, To: graph.NodeRef{Kind: "A", Label: "a"}, Rel: "r", P: 0.5},
	}}); err != nil {
		t.Fatal(err)
	}
	if r := e.Rank(req); r.Err != nil {
		t.Fatal(r.Err)
	}
	if ps := e.PlanStats(); ps.Patches != 1 {
		t.Fatalf("topology delta must not patch: %+v", ps)
	}
}

// expectedScore computes the reference reliability score for the "s"
// chain with X/x at probability p, through the same rank/kernel path the
// engine uses — the from-scratch rebuild the engine's answers must stay
// bit-identical to.
func expectedScore(t testing.TB, p float64, opts Options) float64 {
	t.Helper()
	g := graph.New(3, 2)
	s := g.AddNode("Q", "s", 1)
	x := g.AddNode("X", "x", p)
	a := g.AddNode("A", "a", 1)
	g.AddEdge(s, x, "r", 0.9)
	g.AddEdge(x, a, "r", 0.8)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{a})
	if err != nil {
		t.Fatal(err)
	}
	qg = qg.Prune()
	all := rank.AllOptions{Trials: opts.Trials, Seed: opts.Seed, Methods: []string{"reliability"}}
	all.Plan = kernel.Compile(qg)
	res, err := rank.RankAllCtx(context.Background(), qg, all)
	if err != nil {
		t.Fatal(err)
	}
	return res["reliability"].Scores[0]
}

// TestMutateWhileQueryNoStalePlans is the -race regression test for the
// live pipeline: a writer applies probability deltas and queries after
// each one, asserting the answer always reflects its own delta (never a
// stale plan or cache entry), while concurrent readers race the writer
// and must only ever observe scores belonging to SOME applied state —
// never a torn or stale-plan value.
func TestMutateWhileQueryNoStalePlans(t *testing.T) {
	st := chainStore()
	e := New(storeResolver(st), Config{Workers: 4})
	defer e.Close()

	opts := Options{Trials: 300, Seed: 5}
	req := Request{Source: "s", Methods: []string{"reliability"}, Options: opts}

	vals := []float64{0.15, 0.3, 0.45, 0.6, 0.75, 0.9}
	expected := make(map[float64]float64, len(vals)+1)
	allowed := make(map[uint64]bool, len(vals)+1)
	for _, v := range append([]float64{0.5}, vals...) { // 0.5 = initial state
		sc := expectedScore(t, v, opts)
		expected[v] = sc
		allowed[math.Float64bits(sc)] = true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp := e.Rank(req)
				if resp.Err != nil {
					t.Error(resp.Err)
					return
				}
				got := resp.Results["reliability"].Scores[0]
				if !allowed[math.Float64bits(got)] {
					t.Errorf("reader observed score %v matching no applied graph state", got)
					return
				}
			}
		}()
	}

	writes := 60
	if testing.Short() {
		writes = 15
	}
	for i := 0; i < writes; i++ {
		v := vals[i%len(vals)]
		res := setX(t, st, v)
		e.InvalidateSources(st.SourcesReaching("Q", res.Affected))
		resp := e.Rank(req)
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		got := resp.Results["reliability"].Scores[0]
		if math.Float64bits(got) != math.Float64bits(expected[v]) {
			t.Fatalf("write %d: post-delta score %v, want %v (stale plan or cache entry served)", i, got, expected[v])
		}
	}
	close(stop)
	wg.Wait()

	if ps := e.PlanStats(); ps.Patches == 0 {
		t.Error("expected at least one plan patch under probability-only churn")
	}
}
