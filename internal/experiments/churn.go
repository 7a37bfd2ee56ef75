package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"biorank/internal/engine"
	"biorank/internal/graph"
	"biorank/internal/mediator"
)

// This file measures what scoped cache invalidation buys under a live
// mixed read/write workload — the incremental-integration counterpart of
// the Figure 8 efficiency study. One union entity graph over every
// scenario-1 protein is placed in a mutable graph.Store; a deterministic
// op stream interleaves reliability queries with probability revisions
// of individual protein records. The identical stream replays under both
// cache-consistency strategies:
//
//   - scoped: caches are keyed by query-graph content and a write
//     reclaims only the keywords whose answer sets can reach the mutated
//     record (the engine's behavior);
//   - version-nuke: any write anywhere drops every cached result (the
//     baseline; the experiment builds it by invalidating every keyword
//     on each write).
//
// The study reports hit rates, invalidation and plan-patch counters for
// both, plus a staleness check: after the workload, every keyword's
// (possibly cached) answer must be bit-identical to a cold recompute
// against the final graph state. A cache that wins the hit-rate race by
// serving stale scores would fail that check.

// churnOp is one step of the deterministic workload: either a read of a
// query keyword or a probability revision of a protein record.
type churnOp struct {
	write   bool
	keyword string  // read target
	acc     string  // write target (protein accession)
	p       float64 // new presence probability
}

// ChurnModeResult is one invalidation strategy's outcome over the
// workload.
type ChurnModeResult struct {
	Mode          string
	Reads, Writes int
	// Result-cache counters over the workload reads (the post-run
	// staleness probes are excluded).
	Hits, Misses, Invalidations, Evictions int64
	// HitRate is Hits / (Hits + Misses).
	HitRate float64
	// Plan-cache counters: Patches counts plans derived from a cached
	// same-topology predecessor instead of a full recompile.
	PlanHits, PlanMisses, PlanPatches int64
	// Stale counts keywords whose post-workload answer differed from a
	// cold recompute of the final graph state; 0 is the correctness bar.
	Stale int
}

// ChurnResult is the churn study over both invalidation strategies.
type ChurnResult struct {
	Rounds    int
	WriteRate float64
	Keywords  int
	Trials    int
	Scoped    ChurnModeResult
	Nuke      ChurnModeResult
}

// Churn replays a deterministic mixed read/write stream over the
// scenario-1 union graph under scoped invalidation and under the
// version-nuke baseline. rounds <= 0 defaults to 200 ops, writeRate is
// the probability an op is a write (<= 0 defaults to 0.25), trials <= 0
// defaults to the suite's sensitivity budget.
func (s *Suite) Churn(rounds int, writeRate float64, trials int) (ChurnResult, error) {
	if rounds <= 0 {
		rounds = 200
	}
	if writeRate <= 0 {
		writeRate = 0.25
	}
	if trials <= 0 {
		trials = s.Opts.SensitivityTrials
	}
	med, err := s.World12.Mediator()
	if err != nil {
		return ChurnResult{}, err
	}
	keywords := make([]string, len(s.World12.Cases))
	for i, cs := range s.World12.Cases {
		keywords[i] = cs.Protein
	}
	// One op stream, generated once and replayed identically per mode.
	rng := rand.New(rand.NewSource(int64(s.Opts.Seed)*7919 + 11))
	ops := make([]churnOp, rounds)
	for i := range ops {
		kw := keywords[rng.Intn(len(keywords))]
		if rng.Float64() < writeRate {
			accs := med.Accessions(kw)
			ops[i] = churnOp{write: true, acc: accs[rng.Intn(len(accs))], p: 0.5 + 0.5*rng.Float64()}
		} else {
			ops[i] = churnOp{keyword: kw}
		}
	}
	out := ChurnResult{Rounds: rounds, WriteRate: writeRate, Keywords: len(keywords), Trials: trials}
	for _, pass := range []struct {
		name string
		nuke bool
		dst  *ChurnModeResult
	}{
		{"scoped", false, &out.Scoped},
		{"version-nuke", true, &out.Nuke},
	} {
		res, err := s.churnMode(med, keywords, ops, pass.nuke, trials)
		if err != nil {
			return ChurnResult{}, fmt.Errorf("experiments: churn %s: %w", pass.name, err)
		}
		res.Mode = pass.name
		*pass.dst = res
	}
	return out, nil
}

// churnMode replays the op stream against a fresh union store and engine
// under one invalidation strategy: scoped, or with nuke set the
// version-nuke baseline.
func (s *Suite) churnMode(med *mediator.Mediator, keywords []string, ops []churnOp, nuke bool, trials int) (ChurnModeResult, error) {
	g, err := med.IntegrateAll(keywords)
	if err != nil {
		return ChurnModeResult{}, err
	}
	live := med.Live(graph.NewStore(g), keywords)
	resolver := engine.ResolverFunc(func(_ context.Context, keyword string) (*graph.QueryGraph, error) {
		return live.Carve(keyword)
	})
	eng := engine.New(resolver, engine.Config{Workers: 1})
	defer eng.Close()
	// Every sampled request runs on the plan cache, whose
	// patch-vs-recompile behavior is half of what this measures.
	reqOpts := engine.Options{Trials: trials, Seed: s.Opts.Seed}
	var res ChurnModeResult
	for _, op := range ops {
		if !op.write {
			res.Reads++
			resp := eng.RankCtx(context.Background(), engine.Request{Source: op.keyword, Methods: []string{"reliability"}, Options: reqOpts})
			if resp.Err != nil {
				return ChurnModeResult{}, resp.Err
			}
			continue
		}
		res.Writes++
		dr, err := live.Store.Apply(graph.Delta{Source: "churn", Ops: []graph.Op{{
			Kind: graph.OpSetNodeP,
			Node: graph.NodeRef{Kind: mediator.KindProtein, Label: op.acc},
			P:    op.p,
		}}})
		if err != nil {
			return ChurnModeResult{}, err
		}
		if nuke {
			eng.InvalidateSources(keywords)
		} else if kws := live.Affected(dr.Affected); len(kws) > 0 {
			eng.InvalidateSources(kws)
		}
	}
	// Freeze the workload counters before the staleness probes below add
	// their own hits and misses.
	cs, ps := eng.CacheStats(), eng.PlanStats()
	res.Hits, res.Misses = cs.Hits, cs.Misses
	res.Invalidations, res.Evictions = cs.Invalidations, cs.Evictions
	if cs.Hits+cs.Misses > 0 {
		res.HitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	res.PlanHits, res.PlanMisses, res.PlanPatches = ps.Hits, ps.Misses, ps.Patches
	// Staleness check: every keyword's answer — cached or not — must be
	// bit-identical to a cold engine's recompute of the same final graph
	// state. The cold engine queries each keyword once, so its plan
	// cache never serves a hit.
	cold := engine.New(resolver, engine.Config{Workers: 1, CacheSize: -1})
	defer cold.Close()
	for _, kw := range keywords {
		req := engine.Request{Source: kw, Methods: []string{"reliability"}, Options: reqOpts}
		warm, fresh := eng.RankCtx(context.Background(), req), cold.RankCtx(context.Background(), req)
		if warm.Err != nil {
			return ChurnModeResult{}, warm.Err
		}
		if fresh.Err != nil {
			return ChurnModeResult{}, fresh.Err
		}
		if !bitIdentical(warm.Results["reliability"].Scores, fresh.Results["reliability"].Scores) {
			res.Stale++
		}
	}
	return res, nil
}

// bitIdentical reports element-wise bit equality of two score vectors.
func bitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// RenderChurn renders the churn study.
func RenderChurn(r ChurnResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Churn — scoped invalidation vs version-nuke (scenario 1 union graph)\n")
	fmt.Fprintf(&b, "%d ops, write rate %.0f%%, %d keywords, %d MC trials, reliability\n",
		r.Rounds, 100*r.WriteRate, r.Keywords, r.Trials)
	fmt.Fprintf(&b, "%-14s %6s %7s %6s %7s %8s %12s %8s %10s %6s\n",
		"Mode", "Reads", "Writes", "Hits", "Misses", "HitRate", "Invalidated", "Patches", "PlanMisses", "Stale")
	for _, m := range []ChurnModeResult{r.Scoped, r.Nuke} {
		fmt.Fprintf(&b, "%-14s %6d %7d %6d %7d %7.1f%% %12d %8d %10d %6d\n",
			m.Mode, m.Reads, m.Writes, m.Hits, m.Misses, 100*m.HitRate,
			m.Invalidations, m.PlanPatches, m.PlanMisses, m.Stale)
	}
	fmt.Fprintf(&b, "\nheadline: scoped invalidation sustains a %.1f%% hit rate where version-nuke\n", 100*r.Scoped.HitRate)
	fmt.Fprintf(&b, "drops to %.1f%% under the identical op stream; both serve answers\n", 100*r.Nuke.HitRate)
	fmt.Fprintf(&b, "bit-identical to a cold recompute of the final graph state.\n")
	return b.String()
}
