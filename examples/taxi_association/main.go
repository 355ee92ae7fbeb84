// Association testing under LDP (paper Section 6.1): run chi-squared
// independence tests on marginals reconstructed privately with InpHT and
// compare the verdicts with the non-private tests — reproducing the
// accept/reject pattern of the paper's Figure 7.
package main

import (
	"fmt"
	"log"

	"ldpmarginals"
)

// pairs mixes strongly associated attribute pairs with independent ones.
var pairs = []struct {
	a, b string
}{
	{"Night_pick", "Night_drop"},
	{"Toll", "Far"},
	{"CC", "Tip"},
	{"M_drop", "CC"},
	{"Far", "Night_pick"},
	{"Toll", "Night_pick"},
}

func main() {
	ds := ldpmarginals.NewTaxiDataset(1<<18, 7)
	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpHT, ldpmarginals.Config{
		D: ds.D, K: 2, Epsilon: 1.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	agg, err := ldpmarginals.Simulate(p, ds.Records, 99, 0)
	if err != nil {
		log.Fatal(err)
	}

	n := float64(ds.N())
	fmt.Printf("chi-squared independence tests, N=%d, eps=1.1, alpha=0.05\n\n", ds.N())
	fmt.Printf("%-26s %14s %14s %10s %10s\n", "pair", "chi2(exact)", "chi2(InpHT)", "exact", "private")
	for _, pair := range pairs {
		beta, err := ds.Mask(pair.a, pair.b)
		if err != nil {
			log.Fatal(err)
		}
		exactTab, err := ds.Marginal(beta)
		if err != nil {
			log.Fatal(err)
		}
		privTab, err := agg.Estimate(beta)
		if err != nil {
			log.Fatal(err)
		}
		exact, err := ldpmarginals.TestIndependence(exactTab, n, 0.05)
		if err != nil {
			log.Fatal(err)
		}
		priv, err := ldpmarginals.TestIndependence(privTab, n, 0.05)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s %14.1f %14.1f %10s %10s\n",
			pair.a+"-"+pair.b, exact.Stat, priv.Stat, verdict(exact), verdict(priv))
	}
	crit, _ := ldpmarginals.TestIndependence(mustUniform(), n, 0.05)
	fmt.Printf("\ncritical value (df=1, 95%%): %.3f\n", crit.Critical)
}

func verdict(r *ldpmarginals.IndependenceResult) string {
	if r.Dependent {
		return "dep"
	}
	return "indep"
}

// mustUniform builds a throwaway 2-way table just to read the critical
// value from a TestResult.
func mustUniform() *ldpmarginals.Table {
	ds := ldpmarginals.NewTaxiDataset(100, 1)
	beta, _ := ds.Mask("CC", "Tip")
	tab, err := ds.Marginal(beta)
	if err != nil {
		log.Fatal(err)
	}
	return tab
}
