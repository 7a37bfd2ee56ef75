// Discovery: the paper's headline use case. A researcher queries a
// well-studied protein hoping to surface functions that are true but not
// yet recorded in curated databases (scenario 2). Probabilistic ranking
// surfaces them; deterministic redundancy counting buries them.
//
//	go run ./examples/discovery
package main

import (
	"context"
	"fmt"
	"log"

	"biorank"
)

func main() {
	sys, err := biorank.NewDemoSystem(1)
	if err != nil {
		log.Fatal(err)
	}

	// The three proteins for which the paper found recently published,
	// not-yet-curated functions (its Table 2).
	for _, protein := range []string{"ABCC8", "CFTR", "EYA1"} {
		emerging := map[string]bool{}
		for _, f := range sys.EmergingFunctions(protein) {
			emerging[f] = true
		}
		golden := map[string]bool{}
		for _, f := range sys.GoldenFunctions(protein) {
			golden[f] = true
		}

		answers, err := sys.Query(protein)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s — %d candidate functions, %d newly published ones hidden among them\n",
			protein, answers.Len(), len(emerging))

		for _, m := range []biorank.Method{biorank.Reliability, biorank.Diffusion, biorank.InEdge} {
			scored, _, err := answers.RankCtx(context.Background(), m, biorank.Options{Trials: 10000, Seed: 3})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-12s", m)
			for _, a := range scored {
				if emerging[a.Label] {
					if a.RankLo == a.RankHi {
						fmt.Printf("  %s@%d", a.Label, a.RankLo)
					} else {
						fmt.Printf("  %s@%d-%d", a.Label, a.RankLo, a.RankHi)
					}
				}
			}
			fmt.Println()
		}
		fmt.Println()
	}
	fmt.Println("A new function rests on a single strong evidence path: the probabilistic")
	fmt.Println("methods rank it near the known functions, while InEdge ties it with the")
	fmt.Println("weak noise (wide rank intervals) — the paper's case for keeping probabilities.")
}
