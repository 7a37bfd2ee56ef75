// Quickstart: build a small probabilistic entity graph by hand, run an
// exploratory query, and rank the answers with all five semantics.
//
// The graph is Figure 4a of the paper (a serial-parallel graph): two
// paths from the query to the answer share a single uncertain link, so
// reliability (0.5) and propagation (0.75) disagree — propagation counts
// the shared link twice.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"biorank"
)

func main() {
	g := biorank.NewGraph()

	// Records: a queryable protein, two intermediate gene records, and
	// one answer function. Probabilities are the records' correctness.
	protein := g.AddRecord("Protein", "P53", 1.0)
	geneA := g.AddRecord("Gene", "recordA", 1.0)
	geneB := g.AddRecord("Gene", "recordB", 1.0)
	function := g.AddRecord("Function", "GO:0006915", 1.0)

	// Links: the protein-to-gene link is uncertain (0.5); everything
	// downstream is certain. Both evidence paths share that first link.
	shared := g.AddRecord("Match", "blast-hit", 1.0)
	g.AddLink(protein, shared, 0.5)
	g.AddLink(shared, geneA, 1.0)
	g.AddLink(shared, geneB, 1.0)
	g.AddLink(geneA, function, 1.0)
	g.AddLink(geneB, function, 1.0)

	answers, err := g.Explore("P53", "Protein", "Function")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Ranking GO:0006915 under the five semantics of the paper:")
	for _, m := range biorank.Methods() {
		scored, _, err := answers.RankCtx(context.Background(), m, biorank.Options{Trials: 200000, Seed: 1, Exact: m == biorank.Reliability})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s r = %.4f\n", m, scored[0].Score)
	}
	fmt.Println()
	fmt.Println("Reliability accounts for the shared 0.5 link (r = 0.5);")
	fmt.Println("propagation treats the two paths as independent (r = 0.75);")
	fmt.Println("the deterministic measures only count structure (2 paths, 2 in-edges).")
}
