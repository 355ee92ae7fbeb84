// Quickstart: collect a 2-way marginal under local differential privacy
// with the paper's best protocol (InpHT) and compare it with the truth.
package main

import (
	"fmt"
	"log"

	"ldpmarginals"
)

func main() {
	// A population of 256K synthetic taxi trips over 8 binary attributes.
	ds := ldpmarginals.NewTaxiDataset(1<<18, 1)

	// Deploy InpHT: every user sends d+1 = 9 bits, and afterwards any
	// marginal over at most K=2 attributes can be reconstructed.
	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpHT, ldpmarginals.Config{
		D: ds.D, K: 2, Epsilon: 1.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	agg, err := ldpmarginals.Simulate(p, ds.Records, 42, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d reports, %d bits each\n", agg.N(), p.CommunicationBits())

	// Reconstruct the credit-card / tip marginal and compare with truth.
	beta, err := ds.Mask("CC", "Tip")
	if err != nil {
		log.Fatal(err)
	}
	private, err := agg.Estimate(beta)
	if err != nil {
		log.Fatal(err)
	}
	exact, err := ldpmarginals.ExactMarginal(ds.Records, beta)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nP(CC, Tip):       private    exact")
	labels := []string{"CC=0,Tip=0", "CC=1,Tip=0", "CC=0,Tip=1", "CC=1,Tip=1"}
	for c, label := range labels {
		fmt.Printf("  %-14s %9.4f %8.4f\n", label, private.Cells[c], exact.Cells[c])
	}
	tv, err := private.TVDistance(exact)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntotal variation distance: %.4f\n", tv)
}
