package ldpmarginals

import (
	"fmt"
	"strings"

	"ldpmarginals/internal/chowliu"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/em"
	"ldpmarginals/internal/freqoracle"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/stats"
	"ldpmarginals/internal/store"
)

// Config carries the deployment parameters shared by all protocols: the
// number of binary attributes D, the largest marginal size K the
// collection must support, the privacy budget Epsilon, and whether the
// PRR-based protocols use the Wang et al. optimized probabilities.
type Config = core.Config

// Protocol couples a client-side randomizer with its aggregator; see
// NewProtocol.
type Protocol = core.Protocol

// Report is the single message a user sends to the aggregator.
type Report = core.Report

// Kind identifies one of the six protocols of the paper's Table 2.
type Kind = core.Kind

// InpHT is the Table 2 protocol in which each user perturbs one Hadamard
// coefficient of its input; AllKinds and ProtocolByName give the others.
const InpHT = core.InpHT

// AllKinds lists the six protocol kinds in Table 2 order.
func AllKinds() []Kind { return core.AllKinds() }

// Table is a (possibly estimated) marginal over an attribute subset.
type Table = marginal.Table

// Dataset is a collection of user records over binary attributes.
type Dataset = dataset.Dataset

// NewProtocol constructs one of the paper's six protocols.
func NewProtocol(kind Kind, cfg Config) (Protocol, error) { return core.New(kind, cfg) }

// Simulate runs the full protocol over the records: every record is
// perturbed by a client with an independent RNG stream and consumed by a
// (sharded, merged) aggregator, which it returns ready for Estimate
// queries. workers <= 0 selects GOMAXPROCS.
func Simulate(p Protocol, records []uint64, seed uint64, workers int) (core.Aggregator, error) {
	return core.Run(p, records, seed, workers)
}

// ExactMarginal computes the exact empirical marginal of a record stream.
func ExactMarginal(records []uint64, beta uint64) (*Table, error) {
	return marginal.FromRecords(records, beta)
}

// NewTaxiDataset synthesizes n records with the dependence structure of
// the paper's NYC taxi data (Table 1 / Figure 3), which is not shipped
// with this module.
func NewTaxiDataset(n int, seed uint64) *Dataset { return dataset.NewTaxi(n, seed) }

// NewMovieLensDataset synthesizes n genre-preference records over d
// attributes with the all-positive correlations of the paper's movielens
// derivation.
func NewMovieLensDataset(n, d int, seed uint64) (*Dataset, error) {
	return dataset.NewMovieLens(n, d, seed)
}

// NewSkewedDataset synthesizes n records of d independent bits whose
// 1-rates decay geometrically — the "lightly skewed" data of Appendix
// B.2.
func NewSkewedDataset(n, d int, decay float64, seed uint64) (*Dataset, error) {
	return dataset.NewSkewed(n, d, decay, seed)
}

// NewEM constructs the InpEM baseline protocol of Section 4.4
// (budget-split randomized response with expectation-maximization
// decoding) from cfg's D, K and Epsilon. The returned protocol runs
// under Simulate like any other.
func NewEM(cfg Config) (Protocol, error) { return em.New(cfg) }

// NewOLH constructs the InpOLH baseline (optimized local hashing) from
// cfg's D, K and Epsilon.
func NewOLH(cfg Config) (Protocol, error) { return freqoracle.NewOLH(cfg) }

// HCMSConfig parameterizes the InpHTCMS frequency-oracle baseline.
type HCMSConfig = freqoracle.HCMSConfig

// NewHCMS constructs the InpHTCMS baseline (Hadamard count-min/mean
// sketch).
func NewHCMS(cfg HCMSConfig) (Protocol, error) { return freqoracle.NewHCMS(cfg) }

// ProtocolByName constructs a protocol from its name, in any case: one of
// the six kinds, or the InpEM, InpOLH and InpHTCMS baselines, which take
// D, K and Epsilon from cfg. Every one runs under Simulate; a deployment
// serves all but InpRR, InpEM and InpOLH.
func ProtocolByName(name string, cfg Config) (Protocol, error) {
	for _, kind := range AllKinds() {
		if strings.EqualFold(kind.String(), name) {
			return NewProtocol(kind, cfg)
		}
	}
	switch strings.ToLower(name) {
	case "inpem":
		return NewEM(cfg)
	case "inpolh":
		return NewOLH(cfg)
	case "inphtcms":
		return NewHCMS(HCMSConfig{D: cfg.D, K: cfg.K, Epsilon: cfg.Epsilon})
	}
	return nil, fmt.Errorf("unknown protocol %q", name)
}

// IndependenceResult is the outcome of a chi-squared independence test.
type IndependenceResult = stats.TestResult

// TestIndependence runs the chi-squared independence test of Section 6.1
// on a 2-way marginal table over a population of n users at significance
// level alpha (e.g. 0.05). Estimated tables are simplex-projected
// internally.
func TestIndependence(tab *Table, n float64, alpha float64) (*IndependenceResult, error) {
	return stats.ChiSquareIndependence(tab, n, alpha)
}

// DependencyTree is a fitted Chow-Liu tree (Section 6.2).
type DependencyTree = chowliu.Tree

// TreeModel is a dependency tree with conditional probability tables,
// defining a samplable joint distribution.
type TreeModel = chowliu.Model

// FitDependencyTree learns the Chow-Liu dependency tree over d
// attributes from any marginal source: an LDP aggregator or exact
// marginals (wrap a dataset with ExactEstimator).
func FitDependencyTree(est marginal.Estimator, d int) (*DependencyTree, error) {
	return chowliu.FitFromEstimator(est, d)
}

// BuildTreeModel fills conditional probability tables for a fitted tree,
// rooted at the given attribute.
func BuildTreeModel(tree *DependencyTree, est marginal.Estimator, root int) (*TreeModel, error) {
	return chowliu.BuildModel(tree, est, root)
}

// ExactEstimator answers marginal queries exactly from a dataset,
// providing the non-private reference line of the paper's figures.
type ExactEstimator struct {
	// DS is the dataset to answer from.
	DS *Dataset
}

// Estimate computes the exact marginal over beta.
func (e ExactEstimator) Estimate(beta uint64) (*Table, error) {
	return e.DS.Marginal(beta)
}

// CategoricalDataset is a dataset over attributes with more than two
// values, reduced to the binary protocols via bit encoding (Section 6.3).
type CategoricalDataset = dataset.Categorical

// NewCategoricalDataset synthesizes n correlated records over the given
// attribute cardinalities.
func NewCategoricalDataset(n int, cardinalities []int, seed uint64) (*CategoricalDataset, error) {
	return dataset.NewCategoricalCorrelated(n, cardinalities, seed)
}

// ReportStore is the durability layer of a deployment: an append-only
// write-ahead log of report frames plus periodic counter snapshots in
// one data directory. Opening a directory recovers the aggregation
// state a previous process persisted — including after a crash, where
// the WAL tail is replayed and a torn final record is truncated.
type ReportStore = store.Store

// StoreOptions tunes a ReportStore (fsync policy, segment size,
// snapshot cadence).
type StoreOptions = store.Options

// OpenStore recovers the deployment state persisted in dir (creating
// it if needed) and starts the write-ahead log. Pass the store to the
// HTTP server (internal/server Options.Store) to make ingestion
// durable; every aggregator state round-trips through the codec because
// core.Aggregator's MarshalState is canonical for all protocols.
func OpenStore(dir string, p Protocol, opts StoreOptions) (*ReportStore, error) {
	return store.Open(dir, p, opts)
}
