package biorank

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"testing"

	"biorank/internal/graph"
	"biorank/internal/prob"
	"biorank/internal/rank"
)

// estimatorGolden holds SHA-256 digests of the Monte Carlo estimators'
// full output — scores, Lo/Hi, Exact markers, truncation and the
// OpStats/RaceStats/PlannerStats counters — over the demo world's 20
// proteins plus five irreducible graphs. The estimators promise
// bit-identical output for a fixed seed, so a refactor of the sampling
// path must leave every digest unchanged. BIORANK_GOLDEN_PRINT=1 prints
// the current digests.
var estimatorGolden = map[string]string{
	"adaptive/reduce=false/topk=0":  "5bb70fa5f3b23deef2ca09c2676c41d229da765ae0be2f795a1393cec39161d0",
	"adaptive/reduce=false/topk=3":  "50c62fcd7b6b50bb1442ec674f72aacd92fbaf7ebcd95968eab5dd26391873fe",
	"adaptive/reduce=true/topk=0":   "4d554a2fcc3ba6ee45f212456bf4242139a88b8832779e943a66cd6ada3d9d70",
	"adaptive/reduce=true/topk=3":   "5b63d3ec68eb69f5425ecf30fd0167cc648a1f3258ddcc65b295103c56c6e3f3",
	"mc-ctx/workers=0/reduce=false": "927dd33c299128c76f5958d7460666bde079504e68d513c622b0dda8b8304cd6",
	"mc-ctx/workers=0/reduce=true":  "f58c924c9c1fb55540f58026dd0fd6172af086444e4a35de31ffe38492d39c97",
	"mc-ctx/workers=4/reduce=false": "f8e8e31fcec67fa92e1548247bbcaf7e5197e558b7c91042ffc367fd9784a3dd",
	"mc-ctx/workers=4/reduce=true":  "0b68bd51e0066e706510ad99e89122038628eb73a026ae3ee85d927e0725271c",
	"mc-worlds/workers=0":           "7653a3bcfd81db26ca6b5e1eb11be41798982f85ca53ffdde7c327d936b84155",
	"mc-worlds/workers=4":           "d342d28e327336b6d8ff638fcf8f0003ce29d6b027ee16fa7c8d77ff7b13dc18",
	"mc/workers=0/reduce=false":     "1644ab4459a8b41ff2bf78a1e4dd47ba26be7e5948671f7587f5512370f98ef6",
	"mc/workers=0/reduce=true":      "66b3dda9befb71599b0f25040f36ca62a321f3f54cdf41c4da248c41cac33818",
	"mc/workers=4/reduce=false":     "e62dd6bcbfd0065e2c943c658c738d0a9f0c6849db83ce8e79e353788a7c5d3d",
	"mc/workers=4/reduce=true":      "a5800759981f61f6c5d31ff0d2777ef828c9e8090ff834cede6b90a6777a86ad",
	"planner/k=0":                   "553ef338e1a93113d4d82cb97357e4cc55fea230e2085e80f825125d4ecbbcd8",
	"planner/k=3":                   "ad28dc75633b350834012eeb3a8d2d730d25df7ce49b54b46a8603b65cabf5dd",
	"racer/reduce=false":            "474d6f777b1a1808b1a9dfbe886791054f16bf63e647bc09cb6ab26a91ebada6",
	"racer/reduce=true":             "43d18c40f5cfe344aa00afc3e4efe958e6a248cb3e4dc1d6e7794f352c70a6ae",
	"worlds/adaptive":               "498cff4d232946076dd8422e211ceb73176fc28ddb3efda415cc954988966a75",
	"worlds/planner":                "f6b838a5a35a266b1a403b4c49b33409df89d7e791e9dc3f4d7c98a991ea7618",
	"worlds/racer":                  "9591b7b7f3ea95d7d580bbfe5096d1e8d91091ab0bda95f2870d416b3d97fb80",
}

// goldenConfigs lists the estimator configurations the golden table
// pins. Each run returns its result plus a textual dump of its stats.
func goldenConfigs() []struct {
	name string
	run  func(ctx context.Context, qg *graph.QueryGraph) (rank.Result, string, error)
} {
	type cfg = struct {
		name string
		run  func(ctx context.Context, qg *graph.QueryGraph) (rank.Result, string, error)
	}
	var out []cfg
	for _, workers := range []int{0, 4} {
		for _, reduce := range []bool{false, true} {
			workers, reduce := workers, reduce
			out = append(out, cfg{fmt.Sprintf("mc/workers=%d/reduce=%t", workers, reduce),
				func(_ context.Context, qg *graph.QueryGraph) (rank.Result, string, error) {
					res, ops, err := (&rank.MonteCarlo{Trials: 3000, Seed: 7, Workers: workers, Reduce: reduce}).RankWithStats(qg)
					return res, fmt.Sprint(ops), err
				}})
			out = append(out, cfg{fmt.Sprintf("mc-ctx/workers=%d/reduce=%t", workers, reduce),
				func(ctx context.Context, qg *graph.QueryGraph) (rank.Result, string, error) {
					res, err := (&rank.MonteCarlo{Trials: 3000, Seed: 7, Workers: workers, Reduce: reduce}).RankCtx(ctx, qg)
					return res, "", err
				}})
		}
		// The fixed-budget block-kernel path already ran on one session
		// per shard, so it is pinned bit for bit too.
		workers := workers
		out = append(out, cfg{fmt.Sprintf("mc-worlds/workers=%d", workers),
			func(ctx context.Context, qg *graph.QueryGraph) (rank.Result, string, error) {
				res, err := (&rank.MonteCarlo{Trials: 3000, Seed: 7, Workers: workers, Worlds: true}).RankCtx(ctx, qg)
				return res, "", err
			}})
	}
	for _, reduce := range []bool{false, true} {
		for _, k := range []int{0, 3} {
			reduce, k := reduce, k
			out = append(out, cfg{fmt.Sprintf("adaptive/reduce=%t/topk=%d", reduce, k),
				func(_ context.Context, qg *graph.QueryGraph) (rank.Result, string, error) {
					res, ops, err := (&rank.AdaptiveMonteCarlo{MaxTrials: 6000, TopK: k, Seed: 11, Reduce: reduce}).RankWithStats(qg)
					return res, fmt.Sprint(ops), err
				}})
		}
		reduce := reduce
		out = append(out, cfg{fmt.Sprintf("racer/reduce=%t", reduce),
			func(ctx context.Context, qg *graph.QueryGraph) (rank.Result, string, error) {
				res, rs, err := (&rank.TopKRacer{K: 3, MaxTrials: 6000, Seed: 13, Reduce: reduce}).RankWithRaceCtx(ctx, qg)
				return res, fmt.Sprint(rs), err
			}})
	}
	for _, k := range []int{0, 3} {
		k := k
		out = append(out, cfg{fmt.Sprintf("planner/k=%d", k),
			func(ctx context.Context, qg *graph.QueryGraph) (rank.Result, string, error) {
				res, ps, err := (&rank.HybridPlanner{K: k, MaxTrials: 6000, Seed: 17}).RankWithStatsCtx(ctx, qg)
				return res, fmt.Sprint(ps), err
			}})
	}
	// The sampled block-kernel paths of the sequential estimators. Their
	// digests pin the one-session-per-run stream.
	out = append(out,
		cfg{"worlds/adaptive", func(_ context.Context, qg *graph.QueryGraph) (rank.Result, string, error) {
			res, ops, err := (&rank.AdaptiveMonteCarlo{MaxTrials: 6000, Seed: 11, Worlds: true}).RankWithStats(qg)
			return res, fmt.Sprint(ops), err
		}},
		cfg{"worlds/racer", func(ctx context.Context, qg *graph.QueryGraph) (rank.Result, string, error) {
			res, rs, err := (&rank.TopKRacer{K: 3, MaxTrials: 6000, Seed: 13, Worlds: true}).RankWithRaceCtx(ctx, qg)
			return res, fmt.Sprint(rs), err
		}},
		cfg{"worlds/planner", func(ctx context.Context, qg *graph.QueryGraph) (rank.Result, string, error) {
			res, ps, err := (&rank.HybridPlanner{K: 3, MaxTrials: 6000, Seed: 17, Worlds: true}).RankWithStatsCtx(ctx, qg)
			return res, fmt.Sprint(ps), err
		}})
	return out
}

// TestEstimatorGoldenTable runs every golden configuration twice — once
// under an uncancellable context and once under a live cancellable one —
// and requires both to reproduce the committed digest.
func TestEstimatorGoldenTable(t *testing.T) {
	if testing.Short() {
		t.Skip("golden table runs every estimator over 20 proteins")
	}
	sys, err := NewDemoSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*graph.QueryGraph
	for _, p := range sys.Proteins() {
		ans, err := sys.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, ans.qg)
	}
	// The demo world's answers all reduce exactly, so the planner would
	// never simulate on them; irreducible random graphs cover its race.
	for seed := uint64(1); seed <= 5; seed++ {
		graphs = append(graphs, irreducibleGraph(t, seed))
	}
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := map[string]string{}
	for _, c := range goldenConfigs() {
		for _, ctx := range []context.Context{context.Background(), cancellable} {
			h := sha256.New()
			for _, qg := range graphs {
				res, stats, err := c.run(ctx, qg)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				writeGoldenResult(h, res, stats)
			}
			d := fmt.Sprintf("%x", h.Sum(nil))
			if prev, ok := got[c.name]; ok && prev != d {
				t.Errorf("%s: a cancellable context changed the output", c.name)
			}
			got[c.name] = d
		}
	}
	if os.Getenv("BIORANK_GOLDEN_PRINT") != "" {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("\t%q: %q,\n", n, got[n])
		}
	}
	for name, want := range estimatorGolden {
		if got[name] != want {
			t.Errorf("%s: digest %s, golden %s", name, got[name], want)
		}
	}
	if len(estimatorGolden) != len(got) {
		t.Errorf("golden table has %d entries, %d configurations ran", len(estimatorGolden), len(got))
	}
}

// irreducibleGraph builds a small layered graph whose cross links defeat
// the series-parallel reductions.
func irreducibleGraph(t *testing.T, seed uint64) *graph.QueryGraph {
	rng := prob.NewRNG(seed)
	const width, answers = 6, 8
	g := graph.New(1+2*width+answers, 6*width)
	s := g.AddNode("Q", "s", 1)
	var layer1, layer2, outs []graph.NodeID
	for i := 0; i < width; i++ {
		layer1 = append(layer1, g.AddNode("A", fmt.Sprint("a", i), 0.5+0.5*rng.Float64()))
		layer2 = append(layer2, g.AddNode("B", fmt.Sprint("b", i), 0.5+0.5*rng.Float64()))
	}
	for i := 0; i < answers; i++ {
		outs = append(outs, g.AddNode("F", fmt.Sprint("f", i), 0.3+0.7*rng.Float64()))
	}
	for i := 0; i < width; i++ {
		g.AddEdge(s, layer1[i], "r", 0.3+0.7*rng.Float64())
		g.AddEdge(layer1[i], layer2[i], "r", 0.3+0.7*rng.Float64())
		g.AddEdge(layer1[i], layer2[(i+1)%width], "r", 0.3+0.7*rng.Float64())
		g.AddEdge(layer1[(i+2)%width], layer2[i], "r", 0.3+0.7*rng.Float64())
		g.AddEdge(layer2[i], outs[i%answers], "r", 0.3+0.7*rng.Float64())
		g.AddEdge(layer2[i], outs[(i+3)%answers], "r", 0.3+0.7*rng.Float64())
	}
	qg, err := graph.NewQueryGraph(g, s, outs)
	if err != nil {
		t.Fatal(err)
	}
	return qg.Prune()
}

func writeGoldenResult(h hash.Hash, res rank.Result, stats string) {
	floats := func(xs []float64) {
		fmt.Fprintf(h, "%d:", len(xs))
		for _, x := range xs {
			fmt.Fprintf(h, "%x,", math.Float64bits(x))
		}
	}
	floats(res.Scores)
	floats(res.Lo)
	floats(res.Hi)
	fmt.Fprintf(h, "%v|%t|%s\n", res.Exact, res.Truncated, stats)
}
