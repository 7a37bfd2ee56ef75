package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biorank"
	"biorank/internal/engine"
	"biorank/internal/graph"
	"biorank/internal/kernel"
	"biorank/internal/mediator"
	"biorank/internal/metrics"
	"biorank/internal/query"
	"biorank/internal/rank"
	"biorank/internal/sources"
	"biorank/internal/synth"
	"biorank/internal/wal"
)

// The traced replay runs a workload's first requests in process, making
// the public calls biorankd makes (System.resolve, live.go, the engine,
// TopKCtx, Ingest), with spans recorded around each call into a layer.

// replayBase holds what every replay pass of a run shares: the demo
// world's sources and, for live workloads, the pristine union graph.
type replayBase struct {
	w        *workload
	med      *mediator.Mediator
	reg      *sources.Registry
	cfg      mediator.Config
	profiles []*sources.ProfileDB
	union    *graph.Graph               // live only; each pass serves a clone
	accs     map[string]map[string]bool // keyword -> accessions (live)
	keywords map[string][]string        // accession -> keywords (live)
	setup    span                       // mediator.integrate_all (live)
}

func newReplayBase(w *workload) (*replayBase, error) {
	world := synth.NewScenario12(demoSeed)
	med, err := world.Mediator()
	if err != nil {
		return nil, err
	}
	b := &replayBase{w: w, med: med, reg: world.Registry, cfg: med.Config()}
	for _, db := range []*sources.ProfileDB{world.Registry.Pfam, world.Registry.TIGRFAM} {
		if db != nil {
			b.profiles = append(b.profiles, db)
		}
	}
	for _, db := range []*sources.DomainDB{world.Registry.PIRSF, world.Registry.CDD, world.Registry.SuperFamily} {
		if db != nil {
			b.profiles = append(b.profiles, db.ProfileDB)
		}
	}
	if !w.live {
		return b, nil
	}
	proteins := demoProteins()
	rt := &reqTrace{epoch: time.Now(), req: -1}
	id := rt.begin("mediator.integrate_all", -1)
	b.union, err = med.IntegrateAll(proteins)
	rt.end(id)
	if err != nil {
		return nil, err
	}
	b.setup = rt.spans[id]
	b.accs = make(map[string]map[string]bool, len(proteins))
	b.keywords = map[string][]string{}
	for _, kw := range proteins {
		b.accs[kw] = accessionSet(med, kw)
		for a := range b.accs[kw] {
			b.keywords[a] = append(b.keywords[a], kw)
		}
	}
	return b, nil
}

// replayEnv is one pass's mutable state: a fresh engine (cold caches)
// and, for live workloads, a fresh store; durable workloads write ahead
// to a fresh bench-owned WAL.
type replayEnv struct {
	*replayBase
	eng      *engine.Engine
	store    *graph.Store
	log      *wal.Log
	hook     *timedLog
	ingestMu sync.Mutex
	plans    planMirror
}

func (b *replayBase) env(walDir string) (*replayEnv, error) {
	e := &replayEnv{replayBase: b, plans: planMirror{byFP: map[uint64]*kernel.Plan{}, byTopo: map[uint64]*kernel.Plan{}}}
	if b.w.live {
		e.store = graph.NewStore(b.union.Clone())
	}
	if b.w.durable {
		log, err := wal.OpenLog(walDir, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			return nil, err
		}
		e.log = log
		e.hook = &timedLog{log: log}
		e.store.SetDurability(e.hook)
	}
	e.eng = engine.New(resolver{e}, engine.Config{Workers: 2})
	return e, nil
}

func (e *replayEnv) close() {
	e.eng.Close()
	if e.log != nil {
		e.log.Close()
	}
}

type traceKey struct{}

// resolver is the engine's resolver; it finds the request's trace in
// the context the engine hands its worker.
type resolver struct{ e *replayEnv }

func (r resolver) Resolve(protein string) (*graph.QueryGraph, error) {
	return r.e.resolve(nil, protein)
}

func (r resolver) ResolveCtx(ctx context.Context, protein string) (*graph.QueryGraph, error) {
	rt, _ := ctx.Value(traceKey{}).(*reqTrace)
	return r.e.resolve(rt, protein)
}

// resolve mirrors System.resolve: carve from the live store, or integrate
// the keyword's neighbourhood and run the exploratory query on it.
func (e *replayEnv) resolve(rt *reqTrace, protein string) (*graph.QueryGraph, error) {
	parent := -1
	if rt != nil {
		parent = rt.cur
	}
	var (
		qg  *graph.QueryGraph
		err error
		qid int
	)
	if e.store != nil {
		accs := e.accs[protein]
		if len(accs) == 0 {
			return nil, fmt.Errorf("no protein matches %q", protein)
		}
		var ver uint64
		cid := rt.begin("graph.carve", parent)
		e.store.View(func(g *graph.Graph) {
			ver = g.Version()
			qid = rt.begin("query.run", cid)
			qg, err = carve(g, protein, accs)
			rt.end(qid)
		})
		rt.end(cid)
		if err != nil {
			return nil, err
		}
		qg.Graph.SetVersion(ver)
	} else {
		iid := rt.begin("mediator.integrate", parent)
		g, ierr := e.med.Integrate(protein)
		rt.end(iid)
		if ierr != nil {
			return nil, ierr
		}
		rt.attr(iid, "nodes", float64(g.NumNodes()))
		rt.later(func() { e.replaySources(rt, iid, protein) })
		qid = rt.begin("query.run", parent)
		qg, err = query.Exploratory{InputKind: mediator.KindProtein, OutputKinds: []string{mediator.KindFunction}, Keyword: protein}.Run(g)
		rt.end(qid)
		if err != nil {
			return nil, err
		}
	}
	rt.attr(qid, "answers", float64(len(qg.Answers)))
	rt.attr(qid, "nodes", float64(qg.NumNodes()))
	return qg, nil
}

// replaySources re-runs the source searches Integrate made for protein.
func (e *replayEnv) replaySources(rt *reqTrace, parent int, protein string) {
	cfg, reg := e.cfg, e.reg
	for _, p := range reg.EntrezProtein.ByName(protein) {
		if !cfg.DisableBlast && reg.Blast != nil && reg.EntrezGene != nil {
			rt.replay("sources.blast", parent, func() { reg.Blast.Search(p.Seq, cfg.BlastMaxHits) })
		}
		if cfg.DisableProfiles {
			continue
		}
		for _, db := range e.profiles {
			rt.replay("sources.profile", parent, func() { db.Match(p.Seq, cfg.ProfileMaxHits) })
		}
	}
}

// do runs one request and returns its response in wire form and its
// duration. The request's replay spans stay queued in rt.
func (e *replayEnv) do(ctx context.Context, rt *reqTrace, o op) (parsed, time.Duration, error) {
	start := time.Now()
	root := rt.begin("request."+strings.TrimPrefix(o.req.path, "/"), -1)
	var (
		p   parsed
		err error
	)
	switch o.req.path {
	case "/query":
		p, err = e.query(ctx, rt, root, o.req)
	case "/topk":
		p, err = e.topk(ctx, rt, root, o.req)
	case "/ingest":
		p, err = e.ingest(rt, root, o.req)
	default:
		err = fmt.Errorf("unknown path %s", o.req.path)
	}
	rt.end(root)
	return p, time.Since(start), err
}

func (e *replayEnv) query(ctx context.Context, rt *reqTrace, root int, req request) (parsed, error) {
	ereq := engine.Request{Source: req.protein, Methods: req.methods, Options: engine.Options{
		Trials: req.opts.Trials, Seed: req.opts.Seed, Reduce: req.opts.Reduce,
		Adaptive: req.opts.Adaptive, Worlds: req.opts.Worlds,
	}}
	eid := rt.begin("engine.query", root)
	if rt != nil {
		rt.cur = eid
	}
	resp := e.eng.QueryBatchCtx(context.WithValue(ctx, traceKey{}, rt), []engine.Request{ereq})[0]
	rt.end(eid)
	if resp.Err != nil {
		return parsed{}, resp.Err
	}
	rt.later(func() {
		rt.replay("engine.fingerprint", eid, func() { resp.Graph.Fingerprint() })
		e.replayMisses(ctx, rt, eid, resp, ereq)
	})
	// The facade converts every result for the HTTP layer.
	fid := rt.begin("facade.convert", root)
	r := &queryResult{Protein: req.protein, Answers: len(resp.Graph.Answers), Rankings: map[string][]wireAnswer{}}
	for m, res := range resp.Results {
		r.Rankings[m] = wireRanking(resp.Graph, res)
	}
	rt.end(fid)
	return parsed{query: r}, nil
}

// replayMisses re-runs what the engine did for the methods it missed:
// obtain a plan (patched or compiled, as the engine's plan cache would)
// and run each missed method alone.
func (e *replayEnv) replayMisses(ctx context.Context, rt *reqTrace, parent int, resp engine.Response, req engine.Request) {
	methods := req.Methods
	if len(methods) == 0 {
		methods = rank.MethodNames
	}
	var misses []string
	for _, m := range methods {
		if !resp.Cached[m] {
			misses = append(misses, m)
		}
	}
	if len(misses) == 0 {
		return
	}
	all := rank.AllOptions{Trials: req.Options.Trials, Seed: req.Options.Seed, Reduce: req.Options.Reduce,
		Adaptive: req.Options.Adaptive, Worlds: req.Options.Worlds, Methods: misses, Sequential: true}
	all.Plan = e.plans.get(rt, parent, resp.Graph, all)
	for _, m := range misses {
		one := all
		one.Methods = []string{m}
		rt.replay(rankSpan(m, req.Options), parent, func() {
			_, _ = rank.RankAllCtx(ctx, resp.Graph, one) // the engine already ran it successfully
		})
	}
}

func rankSpan(method string, o engine.Options) string {
	if method != "reliability" {
		return "rank." + method
	}
	switch {
	case o.Adaptive:
		return "rank.adaptive"
	case o.Worlds:
		return "rank.worlds"
	default:
		return "rank.fixed"
	}
}

// planMirror tracks the plans the engine's plan cache would hold, to
// replay a hit (nothing), a patch or a compile. Only replays use it, and
// they run one at a time.
type planMirror struct {
	byFP   map[uint64]*kernel.Plan
	byTopo map[uint64]*kernel.Plan
}

func (pm *planMirror) get(rt *reqTrace, parent int, qg *graph.QueryGraph, all rank.AllOptions) *kernel.Plan {
	needed := false
	for _, m := range all.Methods {
		needed = needed || all.UsesPlan(m)
	}
	if !needed {
		return nil
	}
	fp := qg.Fingerprint()
	if hit := pm.byFP[fp]; hit != nil && hit.Matches(qg) {
		return hit
	}
	// On a plan-cache miss the engine also hashes the topology.
	var topo uint64
	rt.replay("engine.fingerprint", parent, func() { topo = qg.TopoFingerprint() })
	prev := pm.byTopo[topo]
	var plan *kernel.Plan
	if prev != nil {
		rt.replay("kernel.patch", parent, func() { plan, _ = prev.Patch(qg) })
	}
	if plan == nil {
		rt.replay("kernel.compile", parent, func() { plan = kernel.Compile(qg) })
	}
	pm.byFP[fp], pm.byTopo[topo] = plan, plan
	return plan
}

// topk mirrors the /topk handler: Query, then TopKCtx with the planner,
// which compiles a plan for the fresh answer set and races it.
func (e *replayEnv) topk(ctx context.Context, rt *reqTrace, root int, req request) (parsed, error) {
	if rt != nil {
		rt.cur = root
	}
	qg, err := e.resolve(rt, req.protein)
	if err != nil {
		return parsed{}, err
	}
	cid := rt.begin("kernel.compile", root)
	plan := kernel.Compile(qg)
	rt.end(cid)
	tid := rt.begin("rank.topk", root)
	planner := &rank.HybridPlanner{K: req.k, Seed: req.opts.Seed, MaxTrials: req.opts.Trials, Worlds: req.opts.Worlds, Plan: plan}
	res, ps, err := planner.RankWithStatsCtx(ctx, qg)
	rt.end(tid)
	if err != nil {
		return parsed{}, err
	}
	rt.attr(tid, "candidates", float64(len(res.Scores)))
	rt.attr(tid, "candidate_trials", float64(ps.CandidateTrials()))
	rt.attr(tid, "exact_answers", float64(ps.ExactAnswers))
	return parsed{topk: wireTopK(qg, req.k, res, ps)}, nil
}

// ingest mirrors System.Ingest for one delta: apply (writing ahead to the
// WAL), map the affected records to the keywords that reach them, and
// invalidate those keywords' cached results.
func (e *replayEnv) ingest(rt *reqTrace, root int, req request) (parsed, error) {
	d, err := toGraphDelta(req.delta)
	if err != nil {
		return parsed{}, err
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	aid := rt.begin("graph.apply", root)
	if e.hook != nil {
		e.hook.rt, e.hook.parent = rt, aid
	}
	res, err := e.store.Apply(d)
	rt.end(aid)
	if err != nil {
		return parsed{}, err
	}
	sid := rt.begin("graph.sources_reaching", root)
	accs := e.store.SourcesReaching(mediator.KindProtein, res.Affected)
	rt.end(sid)
	seen := map[string]bool{}
	var kws []string
	for _, a := range accs {
		for _, kw := range e.keywords[a] {
			if !seen[kw] {
				seen[kw] = true
				kws = append(kws, kw)
			}
		}
	}
	sort.Strings(kws)
	iid := rt.begin("engine.invalidate", root)
	if len(kws) > 0 {
		e.eng.InvalidateSources(kws)
	}
	rt.end(iid)
	return parsed{ingest: &ingestResponse{Deltas: 1, ProbChanges: res.ProbChanges, ProbOnly: res.ProbOnly,
		Version: res.Version, AffectedSources: kws}}, nil
}

// timedLog is the store's write-ahead hook: the bench-owned WAL, with
// each Append recorded under the ingest that caused it. Ingests hold
// replayEnv.ingestMu, so rt and parent belong to the running one.
type timedLog struct {
	log    *wal.Log
	rt     *reqTrace
	parent int
}

func (t *timedLog) Append(seq, prev uint64, d graph.Delta) error {
	id := t.rt.begin("wal.append", t.parent)
	err := t.log.Append(seq, prev, d)
	t.rt.end(id)
	return err
}

func toGraphDelta(d biorank.IngestDelta) (graph.Delta, error) {
	kinds := map[string]graph.OpKind{"upsert-node": graph.OpUpsertNode, "upsert-edge": graph.OpUpsertEdge,
		"set-node-p": graph.OpSetNodeP, "set-edge-q": graph.OpSetEdgeQ}
	out := graph.Delta{Source: d.Source, Ops: make([]graph.Op, len(d.Ops))}
	for i, o := range d.Ops {
		k, ok := kinds[o.Op]
		if !ok {
			return graph.Delta{}, fmt.Errorf("unknown ingest op %q", o.Op)
		}
		out.Ops[i] = graph.Op{Kind: k, Node: graph.NodeRef(o.Node), From: graph.NodeRef(o.From), To: graph.NodeRef(o.To), Rel: o.Rel, P: o.P}
	}
	return out, nil
}

// wireRanking converts a result the way the facade and biorankd do:
// answers in descending score order, ties in answer-set order, with
// their rank interval and any bounds.
func wireRanking(qg *graph.QueryGraph, res rank.Result) []wireAnswer {
	bounds := len(res.Lo) == len(res.Scores) && len(res.Hi) == len(res.Scores)
	out := make([]wireAnswer, len(qg.Answers))
	for i, id := range qg.Answers {
		n := qg.Node(id)
		lo, hi := metrics.RankInterval(res.Scores, i)
		out[i] = wireAnswer{Kind: n.Kind, Label: n.Label, Score: res.Scores[i], RankLo: lo, RankHi: hi}
		if bounds {
			l, h := res.Lo[i], res.Hi[i]
			out[i].Lo, out[i].Hi = &l, &h
		}
		if len(res.Exact) == len(res.Scores) {
			out[i].Exact = res.Exact[i]
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out
}

// wireTopK converts a planner race the way Answers.TopKCtx does.
func wireTopK(qg *graph.QueryGraph, k int, res rank.Result, ps rank.PlannerStats) *topkResponse {
	order := rank.ArgsortDesc(res.Scores)
	n := min(k, len(order))
	lo, hi := ps.Lo, ps.Hi
	if res.Lo != nil && res.Hi != nil {
		lo, hi = res.Lo, res.Hi
	}
	out := &topkResponse{K: k, Candidates: len(res.Scores), CandidateTrials: ps.CandidateTrials(),
		ExactAnswers: ps.ExactAnswers, Truncated: res.Truncated, Answers: make([]topkAnswer, n)}
	for i := range n {
		idx := order[i]
		node := qg.Node(qg.Answers[idx])
		out.Answers[i] = topkAnswer{Kind: node.Kind, Label: node.Label, Score: res.Scores[idx], Lo: lo[idx], Hi: hi[idx],
			Trials: ps.TrialsPerCandidate[idx]}
		if res.Exact != nil {
			out.Answers[i].Exact = res.Exact[idx]
		}
	}
	return out
}

// replayed is one request of a pass.
type replayed struct {
	op   op
	resp parsed
	err  error
	d    time.Duration
	rt   *reqTrace // nil with spans off
}

func (r replayed) spans() []span {
	if r.rt == nil {
		return nil
	}
	return r.rt.spans
}

// passResult is one replay pass.
type passResult struct {
	reqs       []replayed
	allocBytes uint64
	gcs        uint32
	walBytes   int64 // bytes the bench-owned WAL wrote (durable workloads)
	walAppends int
}

// pass replays queues with two clients: one shared queue is consumed by
// both, two queues are one per client. spans turns spans on; replays also
// runs the replay spans.
func (b *replayBase) pass(ctx context.Context, queues [][]op, spans, replays bool, walDir string) (passResult, error) {
	env, err := b.env(walDir)
	if err != nil {
		return passResult{}, err
	}
	defer env.close()
	epoch := time.Now()
	per := make([][]replayed, clients)
	var cursor atomic.Int64
	// Requests share the gate; a request's replay spans take it alone, so
	// replays neither slow the measured requests nor contend themselves.
	var gate sync.RWMutex
	var m0, m1 runtime.MemStats
	runtime.GC() // start every pass from the same collected heap
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, own := queues[c%len(queues)], 0
			for ctx.Err() == nil {
				i := own
				if len(queues) == 1 {
					i = int(cursor.Add(1) - 1)
				} else {
					own++
				}
				if i >= len(q) {
					return
				}
				o := q[i]
				var rt *reqTrace
				if spans {
					rt = &reqTrace{epoch: epoch, req: o.stream<<20 | o.index}
				}
				gate.RLock()
				p, d, err := env.do(ctx, rt, o)
				gate.RUnlock()
				if replays {
					gate.Lock()
					rt.runDeferred()
					gate.Unlock()
				} else if rt != nil {
					rt.deferred = nil // keep no request's graphs alive past it
				}
				per[c] = append(per[c], replayed{op: o, resp: p, err: err, d: d, rt: rt})
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	res := passResult{allocBytes: m1.TotalAlloc - m0.TotalAlloc, gcs: m1.NumGC - m0.NumGC}
	for _, p := range per {
		res.reqs = append(res.reqs, p...)
	}
	if env.log != nil {
		res.walAppends = int(env.log.Stats().Appends)
		res.walBytes, err = dirBytes(walDir)
		if err != nil {
			return passResult{}, err
		}
	}
	return res, ctx.Err()
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			n += info.Size()
		}
	}
	return n, nil
}

// replayQueues regenerates the first n requests of each of the
// workload's streams.
func replayQueues(w *workload, seed uint64, n int) ([][]op, error) {
	streams, err := w.streams(seed)
	if err != nil {
		return nil, err
	}
	queues := make([][]op, len(streams))
	for i, s := range streams {
		for range n {
			queues[i] = append(queues[i], s.take())
		}
	}
	return queues, nil
}

// replayWarmupOps is the length of the untimed pass that warms the
// process (lazily built source indexes, heap size) before the measured
// passes, as the HTTP phase's warm-up does for the server.
const replayWarmupOps = 50

// replayRun is a workload's full traced replay, three passes over the
// same requests, each from a cold start: spans off; spans on, whose
// difference to the first is the tracing overhead; and spans on with the
// replay spans, which give the per-layer times.
type replayRun struct {
	base                 *replayBase
	off, spans, replayed passResult
}

func runReplay(ctx context.Context, w *workload, seed uint64, n int, scratch string) (*replayRun, error) {
	queues, err := replayQueues(w, seed, n)
	if err != nil {
		return nil, err
	}
	base, err := newReplayBase(w)
	if err != nil {
		return nil, err
	}
	warm := make([][]op, len(queues))
	for i, q := range queues {
		warm[i] = q[:min(replayWarmupOps, len(q))]
	}
	run := &replayRun{base: base}
	for i, p := range []struct {
		queues         [][]op
		spans, replays bool
		dst            *passResult
	}{
		{warm, false, false, nil},
		{queues, false, false, &run.off},
		{queues, true, false, &run.spans},
		{queues, true, true, &run.replayed},
	} {
		dir := filepath.Join(scratch, fmt.Sprintf("replay-wal-%d", i))
		res, err := base.pass(ctx, p.queues, p.spans, p.replays, dir)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		if p.dst != nil {
			*p.dst = res
		}
	}
	return run, nil
}
