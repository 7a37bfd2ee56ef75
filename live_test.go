package biorank

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"biorank/internal/graph"
)

// liveSystem builds a demo system switched to live mode.
func liveSystem(t testing.TB, seed uint64) *System {
	t.Helper()
	s, err := NewDemoSystem(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableLive(); err != nil {
		t.Fatal(err)
	}
	return s
}

// allocSink keeps measured allocations observable to the compiler.
var allocSink any

// allocBytes returns the bytes f allocates per call, averaged over runs
// after one warm-up call.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestLiveCarveAllocatesWhatItKeeps is the allocation regression test of
// the live carve: it copies only the keyword's pruned subgraph out of
// the union graph, so one carve must allocate less than a quarter of the
// bytes a Clone of the whole union graph does. A carve that clones
// allocates more than the clone itself.
func TestLiveCarveAllocatesWhatItKeeps(t *testing.T) {
	s := liveSystem(t, 1)
	live := s.live.Load()
	prots := s.Proteins()
	carve := allocBytes(5, func() {
		for _, p := range prots {
			qg, err := live.Carve(p)
			if err != nil {
				t.Fatal(err)
			}
			allocSink = qg
		}
	}) / uint64(len(prots))
	var clone uint64
	live.Store.View(func(g *graph.Graph) {
		clone = allocBytes(5, func() { allocSink = g.Clone() })
	})
	t.Logf("bytes per carve %d, per union-graph clone %d", carve, clone)
	if 4*carve >= clone {
		t.Errorf("a carve allocates %d B, not under a quarter of a union-graph clone's %d B", carve, clone)
	}
}

// scoreMap ranks a protein with a deterministic method and returns
// label→score.
func scoreMap(t *testing.T, s *System, protein string, m Method) map[string]float64 {
	t.Helper()
	ans, err := s.Query(protein)
	if err != nil {
		t.Fatal(err)
	}
	ranked, _, err := ans.RankCtx(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(ranked))
	for _, a := range ranked {
		out[a.Label] = a.Score
	}
	return out
}

// TestLiveQueryParity pins that carving a keyword's query graph out of
// the live union graph yields the same answers and (deterministic)
// scores as integrating that keyword's neighborhood from scratch.
func TestLiveQueryParity(t *testing.T) {
	live := liveSystem(t, 7)
	fresh, err := NewDemoSystem(7)
	if err != nil {
		t.Fatal(err)
	}
	if live.Live() == false || fresh.Live() {
		t.Fatal("live flags wrong")
	}
	proteins := fresh.Proteins()
	if len(proteins) < 3 {
		t.Fatalf("demo world has %d proteins", len(proteins))
	}
	for _, p := range proteins[:3] {
		for _, m := range []Method{InEdge, PathCount} {
			a := scoreMap(t, live, p, m)
			b := scoreMap(t, fresh, p, m)
			if len(a) == 0 || len(a) != len(b) {
				t.Fatalf("%s/%s: live %d answers, fresh %d", p, m, len(a), len(b))
			}
			for label, sa := range a {
				if sb, ok := b[label]; !ok || sa != sb {
					t.Fatalf("%s/%s answer %s: live %v, fresh %v (present %v)", p, m, label, sa, sb, ok)
				}
			}
		}
	}
}

// setProteinP builds the delta revising one protein record's presence
// probability.
func setProteinP(accession string, p float64) IngestDelta {
	return IngestDelta{Source: "curation", Ops: []IngestOp{
		{Op: "set-node-p", Node: IngestRef{Kind: "EntrezProtein", Label: accession}, P: p},
	}}
}

// TestIngestScopedInvalidation pins the facade end of the tentpole: a
// delta on one protein's record invalidates exactly that protein's
// cached results, and every other protein keeps hitting.
func TestIngestScopedInvalidation(t *testing.T) {
	s := liveSystem(t, 3)
	defer s.Close()
	proteins := s.Proteins()
	pA, pB := proteins[0], proteins[1]
	accs := s.med.Accessions(pA)
	if len(accs) == 0 {
		t.Fatalf("no accession for %s", pA)
	}

	opts := Options{Trials: 200, Seed: 1}
	reqs := []BatchRequest{
		{Protein: pA, Methods: []Method{Reliability}, Options: opts},
		{Protein: pB, Methods: []Method{Reliability}, Options: opts},
	}
	for _, r := range s.QueryBatchCtx(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	res, err := s.Ingest(setProteinP(accs[0], 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.ProbOnly || res.ProbChanges != 1 {
		t.Fatalf("ingest result %+v, want one probability change", res)
	}
	if len(res.AffectedSources) != 1 || res.AffectedSources[0] != pA {
		t.Fatalf("affected sources %v, want [%s]", res.AffectedSources, pA)
	}
	if res.Invalidated == 0 {
		t.Fatalf("ingest reclaimed no cache entries: %+v", res)
	}
	if res.Epochs["curation"] != 1 {
		t.Fatalf("epochs %v, want curation=1", res.Epochs)
	}

	out := s.QueryBatchCtx(context.Background(), reqs)
	if out[0].Err != nil || out[1].Err != nil {
		t.Fatal(out[0].Err, out[1].Err)
	}
	if out[0].Cached[Reliability] {
		t.Fatal("affected protein served a stale cache entry")
	}
	if !out[1].Cached[Reliability] {
		t.Fatal("unaffected protein missed the cache after a scoped invalidation")
	}

	ls, ok := s.LiveStats()
	if !ok || ls.Deltas != 1 || ls.ProbChanges != 1 {
		t.Fatalf("live stats %+v ok=%v", ls, ok)
	}
}

// TestIngestBitIdenticalToRebuild pins the correctness bar of the
// incremental pipeline: for a fixed seed, scores computed after a delta
// (through the patched-plan path) are bit-identical to a from-scratch
// system that rebuilt the same graph state before its first query.
func TestIngestBitIdenticalToRebuild(t *testing.T) {
	const seed = 11
	opts := Options{Trials: 400, Seed: 9}

	inc := liveSystem(t, seed)
	defer inc.Close()
	protein := inc.Proteins()[0]
	acc := inc.med.Accessions(protein)[0]
	req := []BatchRequest{{Protein: protein, Methods: []Method{Reliability}, Options: opts}}

	// Warm: compiles the plan and caches the pre-delta result.
	if r := inc.QueryBatchCtx(context.Background(), req); r[0].Err != nil {
		t.Fatal(r[0].Err)
	}
	if _, err := inc.Ingest(setProteinP(acc, 0.37)); err != nil {
		t.Fatal(err)
	}
	got := inc.QueryBatchCtx(context.Background(), req)
	if got[0].Err != nil {
		t.Fatal(got[0].Err)
	}
	if ps := inc.PlanStats(); ps.Patches == 0 {
		t.Fatalf("probability-only delta did not patch the plan: %+v", ps)
	}

	// From-scratch rebuild of the same state: fresh world, same delta,
	// first query compiles everything anew.
	scratch := liveSystem(t, seed)
	defer scratch.Close()
	if _, err := scratch.Ingest(setProteinP(acc, 0.37)); err != nil {
		t.Fatal(err)
	}
	want := scratch.QueryBatchCtx(context.Background(), req)
	if want[0].Err != nil {
		t.Fatal(want[0].Err)
	}
	if ps := scratch.PlanStats(); ps.Patches != 0 {
		t.Fatalf("fresh system should compile, not patch: %+v", ps)
	}

	g, w := got[0].Rankings[Reliability], want[0].Rankings[Reliability]
	if len(g) == 0 || len(g) != len(w) {
		t.Fatalf("rankings sized %d vs %d", len(g), len(w))
	}
	for i := range g {
		if g[i].Label != w[i].Label || math.Float64bits(g[i].Score) != math.Float64bits(w[i].Score) {
			t.Fatalf("answer %d: patched (%s, %v) vs rebuilt (%s, %v)",
				i, g[i].Label, g[i].Score, w[i].Label, w[i].Score)
		}
	}
}

// TestIngestWhileQuerying races concurrent Ingest writers against
// QueryBatchCtx readers — the regression test the -race CI step leans on
// for the live pipeline. Each writer owns one protein and revises its
// record repeatedly; readers hammer every protein throughout. The final
// state must equal a fresh system that applied only each writer's last
// delta, bit-for-bit.
func TestIngestWhileQuerying(t *testing.T) {
	const (
		seed    = 5
		writers = 3
		rounds  = 15
	)
	s := liveSystem(t, seed)
	defer s.Close()
	proteins := s.Proteins()[:writers]
	opts := Options{Trials: 100, Seed: 2}

	var wg sync.WaitGroup
	errs := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		acc := s.med.Accessions(proteins[w])[0]
		wg.Add(2)
		go func(w int, acc string) {
			defer wg.Done()
			for k := 1; k <= rounds; k++ {
				d := setProteinP(acc, 0.3+0.4*float64(k)/rounds)
				d.Source = fmt.Sprintf("w%d", w)
				if _, err := s.Ingest(d); err != nil {
					errs <- err
					return
				}
			}
		}(w, acc)
		go func(p string) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				r := s.QueryBatchCtx(context.Background(), []BatchRequest{{Protein: p, Methods: []Method{Reliability}, Options: opts}})
				if r[0].Err != nil {
					errs <- r[0].Err
					return
				}
			}
		}(proteins[(w+1)%writers])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ls, ok := s.LiveStats()
	if !ok || ls.Deltas != writers*rounds {
		t.Fatalf("live stats %+v ok=%v, want %d deltas", ls, ok, writers*rounds)
	}
	for w := 0; w < writers; w++ {
		if got := ls.Epochs[fmt.Sprintf("w%d", w)]; got != rounds {
			t.Fatalf("writer %d epoch %d, want %d", w, got, rounds)
		}
	}

	// The racing readers must not have poisoned anything: the surviving
	// state equals a fresh world that applied only the final revisions.
	scratch := liveSystem(t, seed)
	defer scratch.Close()
	for w := 0; w < writers; w++ {
		if _, err := scratch.Ingest(setProteinP(scratch.med.Accessions(proteins[w])[0], 0.3+0.4)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range proteins {
		req := []BatchRequest{{Protein: p, Methods: []Method{Reliability}, Options: opts}}
		got, want := s.QueryBatchCtx(context.Background(), req), scratch.QueryBatchCtx(context.Background(), req)
		if got[0].Err != nil || want[0].Err != nil {
			t.Fatal(got[0].Err, want[0].Err)
		}
		g, w2 := got[0].Rankings[Reliability], want[0].Rankings[Reliability]
		if len(g) == 0 || len(g) != len(w2) {
			t.Fatalf("%s: rankings sized %d vs %d", p, len(g), len(w2))
		}
		for i := range g {
			if g[i].Label != w2[i].Label || math.Float64bits(g[i].Score) != math.Float64bits(w2[i].Score) {
				t.Fatalf("%s answer %d: churned (%s, %v) vs rebuilt (%s, %v)",
					p, i, g[i].Label, g[i].Score, w2[i].Label, w2[i].Score)
			}
		}
	}
}

// TestIngestErrors pins the error contract: not-live systems refuse
// deltas, unknown ops are rejected, and a failing batch reports the
// batches applied before it.
func TestIngestErrors(t *testing.T) {
	s, err := NewDemoSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(setProteinP("x", 0.5)); err != ErrNotLive {
		t.Fatalf("ingest on non-live system: %v", err)
	}

	live := liveSystem(t, 1)
	if _, err := live.Ingest(IngestDelta{Source: "x", Ops: []IngestOp{{Op: "bogus"}}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	acc := live.med.Accessions(live.Proteins()[0])[0]
	res, err := live.Ingest(
		setProteinP(acc, 0.5),
		IngestDelta{Source: "x", Ops: []IngestOp{
			{Op: "set-node-p", Node: IngestRef{Kind: "NoSuch", Label: "nope"}, P: 0.1},
		}},
	)
	if err == nil {
		t.Fatal("delta against a missing record accepted")
	}
	if res.Deltas != 1 || res.ProbChanges != 1 {
		t.Fatalf("partial result %+v, want the first batch applied", res)
	}

	if err := live.EnableLive(); err == nil {
		t.Fatal("double EnableLive accepted")
	}
}
