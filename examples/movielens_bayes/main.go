// Bayesian modeling under LDP (paper Section 6.2): fit a Chow-Liu
// dependency tree from privately collected 2-way marginals, compare its
// quality with the non-private tree, and use the fitted model to sample
// synthetic data.
package main

import (
	"fmt"
	"log"

	"ldpmarginals"
	"ldpmarginals/internal/rng"
)

func main() {
	const d = 10
	ds, err := ldpmarginals.NewMovieLensDataset(200_000, d, 3)
	if err != nil {
		log.Fatal(err)
	}

	// Non-private reference tree.
	exactEst := ldpmarginals.ExactEstimator{DS: ds}
	exactTree, err := ldpmarginals.FitDependencyTree(exactEst, d)
	if err != nil {
		log.Fatal(err)
	}

	// Private tree from InpHT marginals at eps = 1.1.
	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpHT, ldpmarginals.Config{
		D: d, K: 2, Epsilon: 1.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	agg, err := ldpmarginals.Simulate(p, ds.Records, 17, 0)
	if err != nil {
		log.Fatal(err)
	}
	privTree, err := ldpmarginals.FitDependencyTree(agg, d)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Chow-Liu trees over %d movielens genres (N=%d)\n\n", d, ds.N())
	fmt.Printf("non-private tree: total MI %.4f bits\n", exactTree.TotalMI)
	for _, e := range exactTree.Edges {
		fmt.Printf("  %-12s - %-12s  MI=%.4f\n", ds.Names[e.A], ds.Names[e.B], e.MI)
	}
	fmt.Printf("\nprivate tree (InpHT, eps=1.1): total MI %.4f bits (estimated)\n", privTree.TotalMI)
	shared := 0
	for _, e := range privTree.Edges {
		marker := " "
		if exactTree.HasEdge(e.A, e.B) {
			marker = "*"
			shared++
		}
		fmt.Printf("  %-12s - %-12s  MI=%.4f %s\n", ds.Names[e.A], ds.Names[e.B], e.MI, marker)
	}
	fmt.Printf("\n%d of %d private edges match the non-private tree (*)\n", shared, len(privTree.Edges))

	// Build the generative model from the private marginals and sample.
	model, err := ldpmarginals.BuildTreeModel(privTree, agg, 0)
	if err != nil {
		log.Fatal(err)
	}
	r := rng.New(5)
	sampled := make([]uint64, 50_000)
	for i := range sampled {
		sampled[i] = model.Sample(r)
	}
	ll, err := model.LogLikelihood(ds.Records)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsampled %d synthetic records from the private model\n", len(sampled))
	fmt.Printf("model log2-likelihood on the real data: %.3f bits/record\n", ll)
}
