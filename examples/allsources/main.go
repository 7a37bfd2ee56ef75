// All sources: integrate the full set of eleven databases from the
// paper's Section 2 table — curated gene databases (EntrezGene,
// UniProt), sequence similarity (NCBIBlast over EntrezProtein), profile
// matchers (Pfam, TIGRFAM, PIRSF, CDD, SuperFamily), annotations (AmiGO)
// and structures (PDB) — and watch converging evidence from independent
// sources push the right functions to the top.
//
//	go run ./examples/allsources
package main

import (
	"context"
	"fmt"
	"log"

	"biorank"
)

func main() {
	sys, err := biorank.NewFullSystem(5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("integrated sources (%d):\n", len(sys.Sources()))
	for _, s := range sys.Sources() {
		fmt.Printf("  - %s\n", s)
	}
	fmt.Println()

	for _, protein := range sys.Proteins() {
		answers, err := sys.Query(protein)
		if err != nil {
			log.Fatal(err)
		}
		golden := map[string]bool{}
		for _, f := range sys.GoldenFunctions(protein) {
			golden[f] = true
		}
		ranked, _, err := answers.RankCtx(context.Background(), biorank.Reliability, biorank.Options{Trials: 5000, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		nodes, edges := answers.GraphSize()
		fmt.Printf("%s: %d candidates over %d nodes / %d edges\n", protein, answers.Len(), nodes, edges)
		for i, a := range ranked {
			if i >= 6 {
				break
			}
			mark := " "
			if golden[a.Label] {
				mark = "*"
			}
			fmt.Printf("  %s #%d %-14s r=%.3f\n", mark, i+1, a.Label, a.Score)
		}
		ap := biorank.AveragePrecision(ranked, func(l string) bool { return golden[l] })
		fmt.Printf("  AP vs golden standard: %.2f (random %.2f)\n\n",
			ap, biorank.RandomAP(len(golden), answers.Len()))
	}
}
