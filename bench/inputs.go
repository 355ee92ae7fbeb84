package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
)

// zipfExponent skews the generated attribute values, like ldpload's
// default traffic.
const zipfExponent = 1.1

// queriesPerRequest is the number of conjunctions in one /query body.
const queriesPerRequest = 16

// queryBodies is the number of distinct pre-built /query bodies the
// query phase cycles through.
const queryBodies = 64

// populationSeed fixes the population: the records and the randomness
// that perturbs them. The reports a deployment holds are a benchmark
// constant, like a scale factor's data set, because accuracy under LDP
// is a random variable of the perturbation draw — across seeds tv_error
// moved by 20-40% of its median at these sizes, which no bound could
// gate — whereas over a fixed population it is a pure function of the
// code. The preload posts the population in its own order, so the
// preloaded state and its wire sizes repeat exactly too. The -seed
// argument drives the traffic of the timed rounds instead: the order
// the bodies are posted in (so which shard and which edge each lands on)
// and the query strings. The price: tv_error and the theoretical_tv check
// cover this one perturbation draw, whatever the seed.
const populationSeed = 20180610

// recordSample is how many of the first records are kept as they were
// drawn, for the ledger's client-side timings.
const recordSample = 1 << 14

// inputs is everything a workload feeds the deployment, generated
// before any clock starts. The program under test sees only Bodies and
// Queries.
type inputs struct {
	// Histogram counts the true records by attribute mask (2^d cells);
	// Sample holds the first recordSample of them.
	Histogram []float64
	Sample    []uint64
	// Bodies are /report/batch request bodies, one perturbed report per
	// record; Order is the seed's permutation of them, the order the
	// timed rounds post them in.
	Bodies [][]byte
	Order  []int
	// Batch is the number of reports in every body.
	Batch int
	// Queries are /query request bodies of queriesPerRequest k-way
	// conjunctions each; QueryStrings holds the same conjunctions for the
	// layer ledger.
	Queries      [][]byte
	QueryStrings [][]string
}

// generate builds a workload's inputs: the fixed population —
// zipf-skewed records over the 2^d domain, one perturbed report per
// record, packed into batch bodies — a posting order for the rounds
// drawn from the seed, and k-way conjunction queries drawn from the seed.
func generate(p core.Protocol, nBodies, batch int, seed uint64) (*inputs, error) {
	cfg := p.Config()
	domain := uint64(1) << cfg.D
	pop := rand.New(rand.NewSource(populationSeed))
	zipf := rand.NewZipf(pop, zipfExponent, 1, domain-1)
	r := rng.New(populationSeed)
	client := p.NewClient()

	src := rand.New(rand.NewSource(int64(seed)))
	in := &inputs{
		Histogram: make([]float64, domain),
		Bodies:    make([][]byte, nBodies),
		Order:     src.Perm(nBodies),
		Batch:     batch,
	}
	reps := make([]core.Report, batch)
	for slot := range in.Bodies {
		for j := range reps {
			rec := zipf.Uint64()
			in.Histogram[rec]++
			if len(in.Sample) < recordSample {
				in.Sample = append(in.Sample, rec)
			}
			rep, err := client.Perturb(rec, r)
			if err != nil {
				return nil, fmt.Errorf("perturbing record: %w", err)
			}
			reps[j] = rep
		}
		body, err := encoding.MarshalBatch(p.Name(), reps)
		if err != nil {
			return nil, err
		}
		in.Bodies[slot] = body
	}

	in.Queries = make([][]byte, queryBodies)
	in.QueryStrings = make([][]string, queryBodies)
	for i := range in.Queries {
		qs := make([]string, queriesPerRequest)
		for j := range qs {
			qs[j] = conjunction(src, cfg.D, cfg.K)
		}
		body, err := json.Marshal(struct {
			Queries []string `json:"queries"`
		}{qs})
		if err != nil {
			return nil, err
		}
		in.Queries[i], in.QueryStrings[i] = body, qs
	}
	return in, nil
}

// conjunction draws k distinct attributes and a value for each, in the
// internal/query text syntax ("a3=1 AND a7=0").
func conjunction(src *rand.Rand, d, k int) string {
	terms := make([]string, k)
	for i, attr := range src.Perm(d)[:k] {
		terms[i] = fmt.Sprintf("a%d=%d", attr, src.Intn(2))
	}
	return strings.Join(terms, " AND ")
}
