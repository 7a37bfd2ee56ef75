package biorank

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/mediator"
	"biorank/internal/query"
)

// codecJSON is qg's graph-codec encoding: node order, labels,
// probabilities, edges, source and answers.
func codecJSON(t testing.TB, qg *graph.QueryGraph) []byte {
	t.Helper()
	b, err := json.Marshal(qg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireFreshCarve fails unless the graph s resolves for protein equals
// a carve of the live graph as it stands now. The fingerprints compare
// every node and edge in order with its probability, the source and the
// answers, so they stand in for the graphs; the memoized graph's is the
// one its memo computed before publishing it.
func requireFreshCarve(t testing.TB, s *System, protein, when string) {
	t.Helper()
	got, err := s.resolve(protein)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.live.Load().Carve(protein)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: %s resolves to a graph that differs from a fresh carve", when, protein)
	}
}

// TestCachedQueryAllocs is the deterministic warm-path guard: a cached
// one-method QueryBatchCtx must neither integrate (outside live mode)
// nor carve (in it). Either one costs hundreds of allocations; a hit
// served from the memoized graph and the result cache costs about 20.
func TestCachedQueryAllocs(t *testing.T) {
	for _, live := range []bool{false, true} {
		t.Run(fmt.Sprintf("live=%v", live), func(t *testing.T) {
			s, err := NewDemoSystem(1)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if live {
				if err := s.EnableLive(); err != nil {
					t.Fatal(err)
				}
			}
			ctx := context.Background()
			req := []BatchRequest{{Protein: s.Proteins()[0], Methods: []Method{Reliability}, Options: Options{Trials: 1000, Seed: 1}}}
			if r := s.QueryBatchCtx(ctx, req); r[0].Err != nil {
				t.Fatal(r[0].Err)
			}
			var res BatchResult
			allocs := testing.AllocsPerRun(20, func() { res = s.QueryBatchCtx(ctx, req)[0] })
			if res.Err != nil || !res.Cached[Reliability] {
				t.Fatalf("warm request not served from the cache: err %v, cached %v", res.Err, res.Cached)
			}
			t.Logf("%.0f allocs per cached request", allocs)
			if allocs > 50 {
				t.Errorf("a cached request allocates %.0f times, want at most 50: it resolves its graph again", allocs)
			}
		})
	}
}

// TestEnableLiveDropsMemoizedGraphs pins the going-live rule: graphs
// memoized from the mediator before EnableLive must not be served after
// it. On seed 1, CFTR's Explore graph holds the same content as its
// carve in another node order, so a memo that survived would sample it
// on another Monte Carlo stream.
func TestEnableLiveDropsMemoizedGraphs(t *testing.T) {
	s, err := NewDemoSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, p := range s.Proteins() {
		if _, err := s.Query(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.EnableLive(); err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Proteins() {
		requireFreshCarve(t, s, p, "after EnableLive")
	}
}

// TestGraphMemoGenerationGuard pins the ingest race: a fill that read
// the memo before a drop must not store after it, since the graph it
// resolved may predate the drop's ingest.
func TestGraphMemoGenerationGuard(t *testing.T) {
	m := newGraphMemo([]string{"P"})
	qg, gen := m.lookup("P")
	if qg != nil {
		t.Fatal("empty memo returned a graph")
	}
	m.drop([]string{"P"})
	stale := tinyQueryGraph(t)
	m.store("P", gen, stale)
	if got, _ := m.lookup("P"); got != nil {
		t.Fatal("a fill that began before a drop was stored after it")
	}

	// Without a drop in between, the fill is kept; a keyword outside the
	// catalogue never is.
	_, gen = m.lookup("P")
	m.store("P", gen, stale)
	if got, _ := m.lookup("P"); got != stale {
		t.Fatal("an undisturbed fill was not stored")
	}
	_, gen = m.lookup("p")
	m.store("p", gen, stale)
	if got, _ := m.lookup("p"); got != nil {
		t.Fatal("a keyword outside the catalogue was memoized")
	}
}

// tinyQueryGraph returns a one-answer query graph for memo unit tests.
func tinyQueryGraph(t *testing.T) *graph.QueryGraph {
	t.Helper()
	g := graph.New(2, 1)
	s := g.AddNode(query.QueryKind, "P", 1)
	a := g.AddNode(mediator.KindFunction, "GO:1", 1)
	g.AddEdge(s, a, "match", 0.5)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{a})
	if err != nil {
		t.Fatal(err)
	}
	return qg
}

// ingestStream deals seeded single-call ingests over s's live graph,
// mixing the four op kinds: probability revisions of records and links
// in some protein's query graph, upserts of existing records, isolated
// new records, links from one protein's neighbourhood into another's,
// and new AmiGO answers hung off a neighbourhood.
type ingestStream struct {
	rng   *rand.Rand
	names []string
	// nodes and edges hold each protein's query graph: its records and
	// links as ingest ops address them.
	nodes map[string][]IngestRef
	edges map[string][]streamEdge
	next  int
}

type streamEdge struct {
	from, to IngestRef
	rel      string
}

func newIngestStream(t testing.TB, s *System, seed uint64) *ingestStream {
	t.Helper()
	st := &ingestStream{
		rng:   rand.New(rand.NewPCG(seed, 1)),
		nodes: map[string][]IngestRef{},
		edges: map[string][]streamEdge{},
		names: s.Proteins(),
	}
	for _, p := range st.names {
		qg, err := s.live.Load().Carve(p)
		if err != nil {
			t.Fatal(err)
		}
		ref := func(id graph.NodeID) IngestRef {
			n := qg.Node(id)
			return IngestRef{Kind: n.Kind, Label: n.Label}
		}
		for i := 0; i < qg.NumNodes(); i++ {
			if graph.NodeID(i) != qg.Source {
				st.nodes[p] = append(st.nodes[p], ref(graph.NodeID(i)))
			}
		}
		for i := 0; i < qg.NumEdges(); i++ {
			e := qg.Edge(graph.EdgeID(i))
			if e.From != qg.Source {
				st.edges[p] = append(st.edges[p], streamEdge{ref(e.From), ref(e.To), e.Kind})
			}
		}
	}
	return st
}

func (st *ingestStream) pick(protein string) IngestRef {
	ns := st.nodes[protein]
	return ns[st.rng.IntN(len(ns))]
}

func (st *ingestStream) delta() IngestDelta {
	p := st.names[st.rng.IntN(len(st.names))]
	prob := func() float64 { return 0.05 + 0.9*st.rng.Float64() }
	var ops []IngestOp
	switch st.rng.IntN(6) {
	case 0:
		ops = []IngestOp{{Op: "set-node-p", Node: st.pick(p), P: prob()}}
	case 1:
		e := st.edges[p][st.rng.IntN(len(st.edges[p]))]
		ops = []IngestOp{{Op: "set-edge-q", From: e.from, To: e.to, Rel: e.rel, P: prob()}}
	case 2:
		ops = []IngestOp{{Op: "upsert-node", Node: st.pick(p), P: prob()}}
	case 3:
		st.next++
		ops = []IngestOp{{Op: "upsert-node", Node: IngestRef{Kind: mediator.KindGene, Label: fmt.Sprintf("isolated-%d", st.next)}, P: prob()}}
	case 4:
		q := st.names[st.rng.IntN(len(st.names))]
		ops = []IngestOp{{Op: "upsert-edge", From: st.pick(p), To: st.pick(q), Rel: "cross-link", P: prob()}}
	default:
		st.next++
		answer := IngestRef{Kind: mediator.KindFunction, Label: fmt.Sprintf("GO:new-%d", st.next)}
		ops = []IngestOp{
			{Op: "upsert-node", Node: answer, P: prob()},
			{Op: "upsert-edge", From: st.pick(p), To: answer, Rel: "new-annotation", P: prob()},
		}
		st.nodes[p] = append(st.nodes[p], answer)
	}
	return IngestDelta{Source: "stream", Ops: ops}
}

// TestMemoMatchesCarveAfterEveryIngest checks that SourcesReaching is
// complete, now that a memoized graph is not re-read from the store: its
// content keys no longer protect it. After every call of a seeded
// stream of 200 ingests, every protein's memoized graph must equal a
// fresh carve.
func TestMemoMatchesCarveAfterEveryIngest(t *testing.T) {
	s := liveSystem(t, 2)
	defer s.Close()
	st := newIngestStream(t, s, 2)
	for _, p := range s.Proteins() {
		requireFreshCarve(t, s, p, "before ingesting")
	}
	for i := range 200 {
		d := st.delta()
		if _, err := s.Ingest(d); err != nil {
			t.Fatalf("ingest %d %+v: %v", i, d, err)
		}
		for _, p := range s.Proteins() {
			requireFreshCarve(t, s, p, fmt.Sprintf("after ingest %d (%s)", i, d.Ops[len(d.Ops)-1].Op))
		}
	}
}

// TestMemoizedGraphStaysUnmutated runs all five methods and every served
// estimator (fixed, adaptive, the top-k racer, the planner and exact)
// from several goroutines on one memoized graph, and requires the
// graph's codec JSON to be unchanged afterwards. Its fingerprint is
// memoized, so it cannot show a mutation. Run it under -race.
func TestMemoizedGraphStaysUnmutated(t *testing.T) {
	s, err := NewDemoSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	protein := s.Proteins()[1]
	ans, err := s.Query(protein)
	if err != nil {
		t.Fatal(err)
	}
	before := codecJSON(t, ans.qg)
	ctx := context.Background()
	estimators := []Options{
		{Trials: 512, Seed: 1},
		{Trials: 512, Seed: 2, Adaptive: true},
		{Trials: 512, Seed: 3, Planner: true},
		{Exact: true},
	}

	racers := []Options{{Trials: 512, Seed: 4}, {Trials: 512, Seed: 5, Planner: true}}
	var wg sync.WaitGroup
	errs := make(chan error, 2*(len(estimators)+len(racers)))
	for round := range 2 {
		for _, o := range estimators {
			o.Seed += uint64(round) * 100
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := s.QueryBatchCtx(ctx, []BatchRequest{{Protein: protein, Options: o}})[0]
				switch {
				case r.Err != nil:
					errs <- r.Err
				case r.Answers.qg != ans.qg:
					errs <- fmt.Errorf("%+v: the engine ranked another graph than the memoized one", o)
				}
			}()
		}
		for _, o := range racers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, err := s.Query(protein)
				if err == nil && a.qg != ans.qg {
					err = fmt.Errorf("Query returned another graph than the memoized one")
				}
				if err == nil {
					_, err = a.TopKCtx(ctx, 3, o)
				}
				if err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !bytes.Equal(codecJSON(t, ans.qg), before) {
		t.Fatal("ranking mutated the shared query graph")
	}
}

// TestMemoReadAfterIngest is live_churn's read-after-ack check in
// process: readers resolve and rank every protein while one writer
// ingests, and after each acknowledged Ingest every keyword it names
// must resolve to a fresh carve. A reader that resolved before the
// ingest and stored its graph after the ingest's drop would fail it.
// Run it under -race.
func TestMemoReadAfterIngest(t *testing.T) {
	s := liveSystem(t, 4)
	defer s.Close()
	st := newIngestStream(t, s, 4)
	proteins := s.Proteins()
	ctx := context.Background()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := proteins[i%len(proteins)]
				if i%4 == 0 {
					s.QueryBatchCtx(ctx, []BatchRequest{{Protein: p, Methods: []Method{InEdge}}})
				} else if _, err := s.Query(p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer wg.Wait()
	defer close(done)
	for i := range 60 {
		res, err := s.Ingest(st.delta())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.AffectedSources {
			requireFreshCarve(t, s, p, fmt.Sprintf("after ingest %d", i))
		}
	}
}
