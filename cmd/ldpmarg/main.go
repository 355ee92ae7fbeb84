// Command ldpmarg runs one LDP marginal-release protocol over a synthetic
// dataset and reports the reconstructed marginal against the exact one.
//
// Usage:
//
//	ldpmarg -protocol InpHT -data taxi -n 262144 -k 2 -eps 1.1 -attrs CC,Tip
//	ldpmarg -protocol MargPS -data movielens -d 10 -n 100000 -k 2 -attrs 0,3
//	ldpmarg -protocol InpEM -data skewed -d 8 -n 65536 -eps 0.5 -attrs 0,1
//
// Protocols: InpRR InpPS InpHT MargRR MargPS MargHT InpEM InpOLH InpHTCMS.
// Datasets: taxi (d fixed at 8), movielens, skewed.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"strconv"
	"strings"

	"ldpmarginals"
	"ldpmarginals/internal/bitops"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldpmarg: ")

	var (
		protocol = flag.String("protocol", "InpHT", "protocol name (InpRR, InpPS, InpHT, MargRR, MargPS, MargHT, InpEM, InpOLH, InpHTCMS)")
		data     = flag.String("data", "taxi", "dataset: taxi, movielens, skewed")
		d        = flag.Int("d", 8, "number of binary attributes (movielens/skewed)")
		n        = flag.Int("n", 1<<17, "population size")
		k        = flag.Int("k", 2, "largest marginal size supported")
		eps      = flag.Float64("eps", math.Log(3), "privacy budget epsilon")
		seed     = flag.Uint64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		attrs    = flag.String("attrs", "", "comma-separated attribute names or indices of the marginal to print (default: first k attributes)")
	)
	flag.Parse()

	ds, err := makeDataset(*data, *n, *d, *seed)
	if err != nil {
		log.Fatal(err)
	}
	p, err := ldpmarginals.ProtocolByName(*protocol, ldpmarginals.Config{D: ds.D, K: *k, Epsilon: *eps, OptimizedPRR: true})
	if err != nil {
		log.Fatal(err)
	}
	beta, err := parseBeta(ds, *attrs, *k)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("protocol=%s data=%s d=%d n=%d k=%d eps=%.4g\n", p.Name(), *data, ds.D, ds.N(), *k, *eps)
	fmt.Printf("communication: %d bits/user, %d bits total\n", p.CommunicationBits(), int64(p.CommunicationBits())*int64(ds.N()))

	agg, err := ldpmarginals.Simulate(p, ds.Records, *seed, *workers)
	if err != nil {
		log.Fatal(err)
	}
	got, err := agg.Estimate(beta)
	if err != nil {
		log.Fatal(err)
	}
	exact, err := ldpmarginals.ExactMarginal(ds.Records, beta)
	if err != nil {
		log.Fatal(err)
	}
	tv, err := got.TVDistance(exact)
	if err != nil {
		log.Fatal(err)
	}

	names := betaNames(ds, beta)
	fmt.Printf("\nmarginal over {%s} (beta=%b)\n", strings.Join(names, ", "), beta)
	fmt.Printf("%-20s %12s %12s\n", "cell", "estimated", "exact")
	for c := range got.Cells {
		fmt.Printf("%-20s %12.5f %12.5f\n", cellLabel(names, c), got.Cells[c], exact.Cells[c])
	}
	fmt.Printf("\ntotal variation distance: %.5f\n", tv)
}

func makeDataset(kind string, n, d int, seed uint64) (*ldpmarginals.Dataset, error) {
	switch kind {
	case "taxi":
		return ldpmarginals.NewTaxiDataset(n, seed), nil
	case "movielens":
		return ldpmarginals.NewMovieLensDataset(n, d, seed)
	case "skewed":
		return ldpmarginals.NewSkewedDataset(n, d, 0.85, seed)
	default:
		return nil, fmt.Errorf("unknown dataset %q (want taxi, movielens, or skewed)", kind)
	}
}

func parseBeta(ds *ldpmarginals.Dataset, attrs string, k int) (uint64, error) {
	if attrs == "" {
		if k > ds.D {
			return 0, fmt.Errorf("k=%d exceeds d=%d", k, ds.D)
		}
		return (uint64(1) << uint(k)) - 1, nil
	}
	var beta uint64
	for _, tok := range strings.Split(attrs, ",") {
		tok = strings.TrimSpace(tok)
		if idx := ds.AttributeIndex(tok); idx >= 0 {
			beta |= 1 << uint(idx)
			continue
		}
		i, err := strconv.Atoi(tok)
		if err != nil || i < 0 || i >= ds.D {
			return 0, fmt.Errorf("unknown attribute %q", tok)
		}
		beta |= 1 << uint(i)
	}
	if bitops.OnesCount(beta) > k {
		return 0, fmt.Errorf("marginal has %d attributes but -k is %d", bitops.OnesCount(beta), k)
	}
	return beta, nil
}

func betaNames(ds *ldpmarginals.Dataset, beta uint64) []string {
	var names []string
	for _, pos := range bitops.BitPositions(beta) {
		names = append(names, ds.Names[pos])
	}
	return names
}

func cellLabel(names []string, cell int) string {
	parts := make([]string, len(names))
	for i, name := range names {
		v := (cell >> uint(i)) & 1
		parts[i] = fmt.Sprintf("%s=%d", name, v)
	}
	return strings.Join(parts, ",")
}
