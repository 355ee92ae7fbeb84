// Categorical attributes under LDP (paper Section 6.3): encode
// higher-cardinality attributes into binary, run InpHT on the encoded
// records, and decode the reconstructed marginal back to category
// values.
package main

import (
	"fmt"
	"log"

	"ldpmarginals"
)

func main() {
	// Three correlated categorical attributes: a 5-valued "region", a
	// 4-valued "fare band" and a 3-valued "time of day".
	cat, err := ldpmarginals.NewCategoricalDataset(150_000, []int{5, 4, 3}, 21)
	if err != nil {
		log.Fatal(err)
	}
	cat.Names = []string{"region", "fare", "time"}

	// Binary encoding: ceil(log2 5) + ceil(log2 4) + ceil(log2 3)
	// = 3 + 2 + 2 = 7 binary attributes (Corollary 6.1's d2).
	bin, err := cat.EncodeBinary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded %d categorical attributes into d2=%d binary attributes\n",
		len(cat.Cardinalities), bin.D)

	// Query the (region, fare) marginal: its binary mask spans both
	// attributes' bit groups, k2 = 5 bits.
	mask, err := cat.MaskFor(0, 1)
	if err != nil {
		log.Fatal(err)
	}
	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpHT, ldpmarginals.Config{
		D: bin.D, K: 5, Epsilon: 1.4,
	})
	if err != nil {
		log.Fatal(err)
	}
	agg, err := ldpmarginals.Simulate(p, bin.Records, 8, 0)
	if err != nil {
		log.Fatal(err)
	}
	private, err := agg.Estimate(mask)
	if err != nil {
		log.Fatal(err)
	}
	exact, err := bin.Marginal(mask)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nP(region, fare):  private    exact\n")
	for cell := range private.Cells {
		vals, ok := cat.DecodeCell(uint64(cell), 0, 1)
		if !ok {
			continue // padding cell of the non-power-of-two cardinality
		}
		fmt.Printf("  region=%d fare=%d %9.4f %8.4f\n",
			vals[0], vals[1], private.Cells[cell], exact.Cells[cell])
	}
	tv, err := private.TVDistance(exact)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntotal variation distance: %.4f\n", tv)
}
