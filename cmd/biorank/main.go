// Command biorank runs an exploratory protein-function query against the
// synthetic BioRank world and prints the ranked candidate functions —
// the workflow of the paper's Section 2 motivating example:
//
//	biorank -protein ABCC8 -method reliability -trials 10000
//
// Flags select the query protein, the ranking method, the Monte Carlo
// budget, the reliability estimator (-planner for the hybrid
// exact/Monte-Carlo planner, -topk N for the successive-elimination
// top-k race; every sampled estimator runs on the 256-world block
// kernel over the full query graph), and whether to use the scenario-3
// (hypothetical proteins) world instead of the default
// well-studied-protein world.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"biorank"
)

func main() {
	var (
		protein      = flag.String("protein", "ABCC8", "query protein (gene name)")
		method       = flag.String("method", "reliability", "ranking method: reliability|propagation|diffusion|inedge|pathcount")
		trials       = flag.Int("trials", 10000, "Monte Carlo trials for reliability")
		seed         = flag.Uint64("seed", 1, "world and simulation seed")
		exact        = flag.Bool("exact", false, "compute reliability exactly (closed solution + factoring)")
		hypothetical = flag.Bool("hypothetical", false, "query the scenario-3 world of hypothetical proteins")
		top          = flag.Int("top", 15, "show the top N functions (0 = all)")
		list         = flag.Bool("list", false, "list available proteins and exit")
		dotFile      = flag.String("dot", "", "write the query graph in Graphviz DOT format to this file")
		jsonFile     = flag.String("json", "", "write the query graph as JSON to this file")
		planner      = flag.Bool("planner", false, "use the hybrid exact/Monte-Carlo planner for reliability (answers carry confidence bounds)")
		topk         = flag.Int("topk", 0, "race only the top K functions by reliability with the successive-elimination ranker (0 = full ranking)")
	)
	flag.Parse()

	sys, err := buildSystem(*hypothetical, *seed)
	if err != nil {
		fatal(err)
	}
	if *list {
		fmt.Println(strings.Join(sys.Proteins(), "\n"))
		return
	}

	ans, err := sys.Query(*protein)
	if err != nil {
		fatal(err)
	}
	nodes, edges := ans.GraphSize()
	fmt.Printf("Exploratory query (EntrezProtein.name = %q, {AmiGO})\n", *protein)
	fmt.Printf("query graph: %d nodes, %d edges; answer set: %d candidate functions\n\n",
		nodes, edges, ans.Len())

	if *dotFile != "" {
		if err := os.WriteFile(*dotFile, []byte(ans.DOT(*protein)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("query graph written to %s (DOT)\n", *dotFile)
	}
	if *jsonFile != "" {
		data, err := ans.MarshalJSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonFile, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("query graph written to %s (JSON)\n", *jsonFile)
	}

	scored, _, err := ans.RankCtx(context.Background(), biorank.Method(*method), biorank.Options{
		Trials:  *trials,
		Seed:    *seed,
		Exact:   *exact,
		Planner: *planner,
		TopK:    *topk,
	})
	if err != nil {
		fatal(err)
	}

	golden := map[string]bool{}
	for _, f := range sys.GoldenFunctions(*protein) {
		golden[f] = true
	}
	emerging := map[string]bool{}
	for _, f := range sys.EmergingFunctions(*protein) {
		emerging[f] = true
	}

	limit := len(scored)
	if *top > 0 && *top < limit {
		limit = *top
	}
	fmt.Printf("%-4s %-14s %-10s %8s  %s\n", "#", "GO term", "rank", "r score", "function / status")
	for i := 0; i < limit; i++ {
		a := scored[i]
		status := biorank.FunctionName(a.Label)
		switch {
		case golden[a.Label]:
			status += "  [well-known]"
		case emerging[a.Label]:
			status += "  [NEW: recently published, not yet curated]"
		}
		rankStr := fmt.Sprintf("%d", a.RankLo)
		if a.RankHi != a.RankLo {
			rankStr = fmt.Sprintf("%d-%d", a.RankLo, a.RankHi)
		}
		fmt.Printf("%-4d %-14s %-10s %8.4f  %s\n", i+1, a.Label, rankStr, a.Score, status)
	}
	if limit < len(scored) {
		fmt.Printf("... (%d more)\n", len(scored)-limit)
	}

	ap := biorank.AveragePrecision(scored, func(l string) bool { return golden[l] })
	fmt.Printf("\naverage precision vs golden standard: %.3f (random baseline: %.3f)\n",
		ap, biorank.RandomAP(len(golden), len(scored)))
}

func buildSystem(hypothetical bool, seed uint64) (*biorank.System, error) {
	if hypothetical {
		return biorank.NewHypotheticalSystem(seed + 1)
	}
	return biorank.NewDemoSystem(seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "biorank:", err)
	os.Exit(1)
}
