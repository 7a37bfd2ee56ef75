// Star schema: Section 5 of the paper discusses divergent star schemas —
// integration scenarios where entries from different databases cannot be
// linked together, so every piece of evidence reaches an answer through
// exactly one private path. InEdge and PathCount then see every answer
// identically (all ties); only the strength of each individual path can
// rank results.
//
//	go run ./examples/starschema
package main

import (
	"context"
	"fmt"
	"log"

	"biorank"
)

func main() {
	g := biorank.NewGraph()
	q := g.AddRecord("Protein", "YFG1", 1)

	// Five sources, each reporting one candidate function through its
	// own unlinkable path with its own confidence.
	type claim struct {
		source   string
		function string
		strength float64
	}
	claims := []claim{
		{"SourceA", "GO:0000001", 0.95},
		{"SourceB", "GO:0000002", 0.70},
		{"SourceC", "GO:0000003", 0.45},
		{"SourceD", "GO:0000004", 0.20},
		{"SourceE", "GO:0000005", 0.05},
	}
	for _, c := range claims {
		rec := g.AddRecord(c.source, c.source+"-hit", 1)
		fn := g.AddRecord("Function", c.function, 1)
		g.AddLink(q, rec, c.strength)
		g.AddLink(rec, fn, 1)
	}

	answers, err := g.Explore("YFG1", "Protein", "Function")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Divergent star schema: one private evidence path per answer.")
	fmt.Println()
	for _, m := range []biorank.Method{biorank.Reliability, biorank.InEdge, biorank.PathCount} {
		scored, _, err := answers.RankCtx(context.Background(), m, biorank.Options{Exact: m == biorank.Reliability})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", m)
		for _, a := range scored {
			rank := fmt.Sprintf("%d", a.RankLo)
			if a.RankHi != a.RankLo {
				rank = fmt.Sprintf("%d-%d", a.RankLo, a.RankHi)
			}
			fmt.Printf("  rank %-5s %s  score %.2f\n", rank, a.Label, a.Score)
		}
		fmt.Println()
	}
	fmt.Println("The deterministic measures tie every answer at rank 1-5: with no")
	fmt.Println("redundancy to count, only probabilistic evidence can rank results.")
}
