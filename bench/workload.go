package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"biorank"
	"biorank/internal/graph"
	"biorank/internal/mediator"
	"biorank/internal/query"
	"biorank/internal/synth"
)

const (
	// demoSeed is the world seed: the server runs -world demo -seed 1 and
	// every oracle and replay builds the same world. The -seed flag only
	// generates request inputs.
	demoSeed = 1
	// clients is the closed loop's width: two goroutines, each on its own
	// keep-alive connection, each sending only after reading the previous
	// response in full.
	clients = 2
	// keepEvery selects the responses recomputed by the oracle: stream
	// positions divisible by it.
	keepEvery = 16
)

// request is one generated operation in the form the oracle and the
// in-process replay consume; body renders the HTTP form the server sees.
type request struct {
	path    string // "/query", "/topk" or "/ingest"
	protein string
	methods []string // nil means all five
	opts    biorank.Options
	k       int                 // /topk only
	delta   biorank.IngestDelta // /ingest only
}

// queryBody is the /query wire form the generator sends.
type queryBody struct {
	Protein  string   `json:"protein"`
	Methods  []string `json:"methods,omitempty"`
	Trials   int      `json:"trials,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	Reduce   bool     `json:"reduce,omitempty"`
	Adaptive bool     `json:"adaptive,omitempty"`
	Worlds   bool     `json:"worlds,omitempty"`
}

// topkBody is the /topk wire form the generator sends.
type topkBody struct {
	Protein string `json:"protein"`
	K       int    `json:"k"`
	Trials  int    `json:"trials"`
	Seed    uint64 `json:"seed"`
	Worlds  bool   `json:"worlds"`
	Planner bool   `json:"planner"`
}

func (r request) body() []byte {
	var v any
	switch r.path {
	case "/query":
		v = queryBody{Protein: r.protein, Methods: r.methods, Trials: r.opts.Trials, Seed: r.opts.Seed,
			Reduce: r.opts.Reduce, Adaptive: r.opts.Adaptive, Worlds: r.opts.Worlds}
	case "/topk":
		v = topkBody{Protein: r.protein, K: r.k, Trials: r.opts.Trials, Seed: r.opts.Seed,
			Worlds: r.opts.Worlds, Planner: r.opts.Planner}
	case "/ingest":
		v = r.delta
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return b
}

// isRead reports whether the operation is a ranking read rather than an
// ingest.
func (r request) isRead() bool { return r.path != "/ingest" }

// op is a request at its position in a stream.
type op struct {
	stream int // stream id; -1 marks a post-window probe
	index  int // position in the stream, counted from 0
	req    request
	body   []byte
}

// stream hands out a workload's requests in generation order. Clients
// sharing a stream race for positions, but the sequence itself depends on
// the seed alone.
type stream struct {
	id  int
	mu  sync.Mutex
	n   int
	gen func(i int) request
}

func newStream(id int, gen func(i int) request) *stream {
	return &stream{id: id, gen: gen}
}

func (s *stream) take() op {
	s.mu.Lock()
	i := s.n
	s.n++
	req := s.gen(i)
	s.mu.Unlock()
	return op{stream: s.id, index: i, req: req, body: req.body()}
}

func (s *stream) taken() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// live starts the server with -live; durable additionally gives it a
	// fresh -wal-dir with -fsync never (and implies live).
	live, durable bool
	// minWarmupOps extends the warm-up until the stream has handed out at
	// least this many requests.
	minWarmupOps int
	// streams builds the request streams for a seed: one stream shared by
	// both clients, or one stream per client.
	streams func(seed uint64) ([]*stream, error)
}

var workloads = []*workload{
	{
		name:    "cold_query",
		streams: coldQueryStreams,
	},
	{
		name:         "warm_query",
		minWarmupOps: 80,
		streams:      warmQueryStreams,
	},
	{
		name:    "live_rank",
		live:    true,
		streams: liveRankStreams,
	},
	{
		name:    "live_churn",
		live:    true,
		durable: true,
		streams: liveChurnStreams,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// demoProteins returns the 20 query proteins of the demo world in its own
// order.
var demoProteins = sync.OnceValue(func() []string {
	w := synth.NewScenario12(demoSeed)
	out := make([]string, len(w.Cases))
	for i, c := range w.Cases {
		out[i] = c.Protein
	}
	return out
})

// newRand derives an independent generator per (seed, stream).
func newRand(seed uint64, streamID int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^uint64(streamID)))
}

// uniqueSeed gives request i a Monte Carlo seed no other request of this
// run or of another -seed shares.
func uniqueSeed(seed uint64, i int) uint64 { return seed<<32 | uint64(i) + 1 }

// deck deals items in shuffled rounds: every len(items) consecutive draws
// hold each item exactly once, so even a short window sees the designed
// mix, and two seeds differ only in order. That keeps runs of different
// seeds comparable.
type deck[T any] struct {
	items []T
	rng   *rand.Rand
	order []int
	pos   int
}

func newDeck[T any](rng *rand.Rand, items ...T) *deck[T] {
	return &deck[T]{items: items, rng: rng}
}

func (d *deck[T]) draw() T {
	if d.pos == len(d.order) {
		d.order = d.rng.Perm(len(d.items))
		d.pos = 0
	}
	v := d.items[d.order[d.pos]]
	d.pos++
	return v
}

// zipf draws ranks 0..n-1 with P(r) proportional to (r+1)^-s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for r := range cdf {
		total += math.Pow(float64(r+1), -s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	r := sort.SearchFloat64s(z.cdf, rng.Float64())
	return min(r, len(z.cdf)-1)
}

// coldQueryStreams: POST /query with reliability, 1000 trials and
// reductions (the paper's R&M2 benchmark configuration), proteins dealt
// uniformly, a unique Monte Carlo seed per request.
func coldQueryStreams(seed uint64) ([]*stream, error) {
	rng := newRand(seed, 0)
	proteins := newDeck(rng, demoProteins()...)
	return []*stream{newStream(0, func(i int) request {
		return request{path: "/query", protein: proteins.draw(), methods: []string{"reliability"},
			opts: biorank.Options{Trials: 1000, Reduce: true, Seed: uniqueSeed(seed, i)}}
	})}, nil
}

// warmQueryStreams: the cold_query request shape over 80 keys (20
// proteins x seeds 1-4). The first 80 requests touch every key once in a
// seeded order; later ones draw key ranks Zipf(1.1). Rank r is always
// protein r mod 20 with seed r/20+1: the seed moves the draws, not which
// key is hot, since the proteins' integration costs differ.
func warmQueryStreams(seed uint64) ([]*stream, error) {
	rng := newRand(seed, 0)
	proteins := demoProteins()
	nkeys := 4 * len(proteins)
	first := rng.Perm(nkeys)
	z := newZipf(nkeys, 1.1)
	return []*stream{newStream(0, func(i int) request {
		k := 0
		if i < nkeys {
			k = first[i]
		} else {
			k = z.draw(rng)
		}
		return request{path: "/query", protein: proteins[k%len(proteins)], methods: []string{"reliability"},
			opts: biorank.Options{Trials: 1000, Reduce: true, Seed: uint64(k/len(proteins) + 1)}}
	})}, nil
}

// liveRankStreams: the sampled paths of a live server, dealt 5:2:1:2 per
// ten requests — default /query (all five methods, 10,000-trial scalar
// Monte Carlo), reliability on the block kernel, adaptive reliability
// capped at 10,000, and /topk with the planner on the block kernel.
func liveRankStreams(seed uint64) ([]*stream, error) {
	rng := newRand(seed, 0)
	proteins := newDeck(rng, demoProteins()...)
	kinds := newDeck(rng, 0, 0, 0, 0, 0, 1, 1, 2, 3, 3)
	return []*stream{newStream(0, func(i int) request {
		p, s := proteins.draw(), uniqueSeed(seed, i)
		switch kinds.draw() {
		case 1:
			return request{path: "/query", protein: p, methods: []string{"reliability"},
				opts: biorank.Options{Trials: 10000, Worlds: true, Seed: s}}
		case 2:
			return request{path: "/query", protein: p, methods: []string{"reliability"},
				opts: biorank.Options{Trials: 10000, Adaptive: true, Seed: s}}
		case 3:
			return request{path: "/topk", protein: p, k: 5,
				opts: biorank.Options{Trials: 10000, Worlds: true, Planner: true, Seed: s}}
		default:
			return request{path: "/query", protein: p, opts: biorank.Options{Seed: s}}
		}
	})}, nil
}

// liveChurnStreams: stream 0 (connection A) only reads; stream 1
// (connection B) deals two sync single-op ingests per five operations.
// Ingests are 7:3 set-node-p on records of some protein's query graph and
// set-edge-q on its edges. Reads rank reliability at 1000 trials with
// seed 1 and no reductions — the compiled-plan path — for a protein drawn
// Zipf(1.1) over the demo order.
func liveChurnStreams(seed uint64) ([]*stream, error) {
	tg, err := churnTargets()
	if err != nil {
		return nil, err
	}
	proteins := demoProteins()
	z := newZipf(len(proteins), 1.1)
	read := func(rng *rand.Rand) request {
		return request{path: "/query", protein: proteins[z.draw(rng)], methods: []string{"reliability"},
			opts: biorank.Options{Trials: 1000, Seed: 1}}
	}
	rngA, rngB := newRand(seed, 0), newRand(seed, 1)
	writes := newDeck(rngB, true, true, false, false, false)
	nodeOps := newDeck(rngB, true, true, true, true, true, true, true, false, false, false)
	prob := func() float64 { return math.Round((0.05+0.9*rngB.Float64())*1e4) / 1e4 }
	return []*stream{
		newStream(0, func(int) request { return read(rngA) }),
		newStream(1, func(int) request {
			if !writes.draw() {
				return read(rngB)
			}
			var o biorank.IngestOp
			if nodeOps.draw() {
				o = biorank.IngestOp{Op: "set-node-p", Node: tg.nodes[rngB.IntN(len(tg.nodes))], P: prob()}
			} else {
				e := tg.edges[rngB.IntN(len(tg.edges))]
				o = biorank.IngestOp{Op: "set-edge-q", From: e.from, To: e.to, Rel: e.rel, P: prob()}
			}
			return request{path: "/ingest", delta: biorank.IngestDelta{Source: "bench", Ops: []biorank.IngestOp{o}}}
		}),
	}, nil
}

type edgeRef struct {
	from, to biorank.IngestRef
	rel      string
}

type targets struct {
	nodes []biorank.IngestRef
	edges []edgeRef
}

// churnTargets lists the records and links of the demo world's union
// graph that lie in some protein's query graph, in a deterministic order:
// exactly the targets whose revision changes some answer.
var churnTargets = sync.OnceValues(func() (targets, error) {
	w := synth.NewScenario12(demoSeed)
	med, err := w.Mediator()
	if err != nil {
		return targets{}, err
	}
	proteins := demoProteins()
	g, err := med.IntegrateAll(proteins)
	if err != nil {
		return targets{}, err
	}
	var tg targets
	seenN := map[biorank.IngestRef]bool{}
	seenE := map[edgeRef]bool{}
	for _, kw := range proteins {
		qg, err := carve(g, kw, accessionSet(med, kw))
		if err != nil {
			return targets{}, err
		}
		ref := func(id graph.NodeID) biorank.IngestRef {
			n := qg.Node(id)
			return biorank.IngestRef{Kind: n.Kind, Label: n.Label}
		}
		for i := 0; i < qg.NumNodes(); i++ {
			r := ref(graph.NodeID(i))
			if r.Kind != query.QueryKind && !seenN[r] {
				seenN[r] = true
				tg.nodes = append(tg.nodes, r)
			}
		}
		for i := 0; i < qg.NumEdges(); i++ {
			e := qg.Edge(graph.EdgeID(i))
			er := edgeRef{from: ref(e.From), to: ref(e.To), rel: e.Kind}
			if er.from.Kind != query.QueryKind && !seenE[er] {
				seenE[er] = true
				tg.edges = append(tg.edges, er)
			}
		}
	}
	if len(tg.nodes) == 0 || len(tg.edges) == 0 {
		return targets{}, fmt.Errorf("demo world has no churn targets")
	}
	return tg, nil
})

func accessionSet(med *mediator.Mediator, keyword string) map[string]bool {
	set := map[string]bool{}
	for _, a := range med.Accessions(keyword) {
		set[a] = true
	}
	return set
}

// carve runs a keyword's exploratory query against a union graph, the
// way a live server resolves a query.
func carve(g *graph.Graph, keyword string, accs map[string]bool) (*graph.QueryGraph, error) {
	return query.Exploratory{
		InputKind:   mediator.KindProtein,
		Match:       func(n graph.Node) bool { return accs[n.Label] },
		OutputKinds: []string{mediator.KindFunction},
		Keyword:     keyword,
	}.Run(g)
}
