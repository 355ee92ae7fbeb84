package ldpmarginals

import (
	"fmt"
	"strings"

	"ldpmarginals/internal/bounds"
	"ldpmarginals/internal/chowliu"
	"ldpmarginals/internal/consistency"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/efronstein"
	"ldpmarginals/internal/em"
	"ldpmarginals/internal/freqoracle"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/query"
	"ldpmarginals/internal/stats"
	"ldpmarginals/internal/store"
	"ldpmarginals/internal/view"
)

// Config carries the deployment parameters shared by all protocols: the
// number of binary attributes D, the largest marginal size K the
// collection must support, the privacy budget Epsilon, and whether the
// PRR-based protocols use the Wang et al. optimized probabilities.
type Config = core.Config

// Protocol couples a client-side randomizer with its aggregator; see
// NewProtocol.
type Protocol = core.Protocol

// Client produces one locally-private report per user record.
type Client = core.Client

// Aggregator accumulates reports and answers Estimate(beta) queries.
type Aggregator = core.Aggregator

// Report is the single message a user sends to the aggregator.
type Report = core.Report

// Kind identifies one of the six protocols of the paper's Table 2.
type Kind = core.Kind

// The six protocol kinds.
const (
	InpRR  = core.InpRR
	InpPS  = core.InpPS
	InpHT  = core.InpHT
	MargRR = core.MargRR
	MargPS = core.MargPS
	MargHT = core.MargHT
)

// AllKinds lists the six protocol kinds in Table 2 order.
func AllKinds() []Kind { return core.AllKinds() }

// Table is a (possibly estimated) marginal over an attribute subset.
type Table = marginal.Table

// Dataset is a collection of user records over binary attributes.
type Dataset = dataset.Dataset

// RunResult is the outcome of Simulate: the merged aggregator and the
// total communication cost of the run.
type RunResult = core.RunResult

// NewProtocol constructs one of the paper's six protocols.
func NewProtocol(kind Kind, cfg Config) (Protocol, error) { return core.New(kind, cfg) }

// Simulate runs the full protocol over the records: every record is
// perturbed by a client with an independent RNG stream and consumed by a
// (sharded, merged) aggregator. workers <= 0 selects GOMAXPROCS.
func Simulate(p Protocol, records []uint64, seed uint64, workers int) (*RunResult, error) {
	return core.Run(p, records, seed, workers)
}

// ShardedAggregator fans ingestion across per-shard accumulators behind
// per-shard locks, with a lock-free report counter — the multi-core
// ingestion path used by the HTTP deployment (internal/server). It
// satisfies Aggregator and produces byte-identical estimates to a
// sequential aggregator fed the same reports.
type ShardedAggregator = core.ShardedAggregator

// NewShardedAggregator wraps a protocol's aggregation in shards
// per-shard accumulators; shards <= 0 selects GOMAXPROCS. See
// internal/core.ShardedAggregator for how to pick the shard count.
func NewShardedAggregator(p Protocol, shards int) *ShardedAggregator {
	return core.NewSharded(p, shards)
}

// AllKWayMarginals enumerates the attribute masks of all C(d,k) k-way
// marginals.
func AllKWayMarginals(d, k int) []uint64 { return marginal.AllKWay(d, k) }

// ExactMarginal computes the exact empirical marginal of a record stream.
func ExactMarginal(records []uint64, beta uint64) (*Table, error) {
	return marginal.FromRecords(records, beta)
}

// MeanTV evaluates an aggregator against exact marginals of the record
// stream, returning the mean total variation distance across the given
// attribute masks — the paper's accuracy metric.
func MeanTV(agg Aggregator, records []uint64, betas []uint64) (float64, error) {
	return marginal.MeanTV(agg, records, betas)
}

// NewTaxiDataset synthesizes n records with the dependence structure of
// the paper's NYC taxi data (Table 1 / Figure 3); see DESIGN.md for the
// substitution rationale.
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

// EMConfig parameterizes the InpEM baseline (Section 4.4).
type EMConfig = em.Config

// NewEM constructs the InpEM baseline protocol (budget-split randomized
// response with expectation-maximization decoding). The returned protocol
// runs under Simulate like any other; its aggregator can be asserted to
// *EMAggregator for EM diagnostics.
func NewEM(cfg EMConfig) (Protocol, error) { return em.New(cfg) }

// EMAggregator exposes the EM baseline's decoding diagnostics.
type EMAggregator = em.Aggregator

// EMResult is a decoded marginal with EM iteration/failure diagnostics.
type EMResult = em.Result

// OLHConfig parameterizes the InpOLH frequency-oracle baseline.
type OLHConfig = freqoracle.OLHConfig

// NewOLH constructs the InpOLH baseline (optimized local hashing).
func NewOLH(cfg OLHConfig) (Protocol, error) { return freqoracle.NewOLH(cfg) }

// HCMSConfig parameterizes the InpHTCMS frequency-oracle baseline.
type HCMSConfig = freqoracle.HCMSConfig

// NewHCMS constructs the InpHTCMS baseline (Hadamard count-min/mean
// sketch).
func NewHCMS(cfg HCMSConfig) (Protocol, error) { return freqoracle.NewHCMS(cfg) }

// ProtocolByName constructs a protocol from its name, in any case: one of
// the six kinds, or the InpEM, InpOLH and InpHTCMS baselines, which take
// D, K and Epsilon from cfg. Every one runs under Simulate; a deployment
// serves all but InpEM and InpOLH.
func ProtocolByName(name string, cfg Config) (Protocol, error) {
	for _, kind := range AllKinds() {
		if strings.EqualFold(kind.String(), name) {
			return NewProtocol(kind, cfg)
		}
	}
	switch strings.ToLower(name) {
	case "inpem":
		return NewEM(EMConfig{D: cfg.D, K: cfg.K, Epsilon: cfg.Epsilon})
	case "inpolh":
		return NewOLH(OLHConfig{D: cfg.D, K: cfg.K, Epsilon: cfg.Epsilon})
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

// MutualInformation computes I(A;B) in bits from a 2-way marginal.
func MutualInformation(tab *Table) (float64, error) { return stats.MutualInformation(tab) }

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

// PearsonMatrix computes the pairwise correlation matrix of the binary
// attribute columns (Figure 3's heatmap data).
func PearsonMatrix(records []uint64, d int) ([][]float64, error) {
	return stats.PearsonMatrix(records, d)
}

// CategoricalDataset is a dataset over attributes with more than two
// values, reduced to the binary protocols via bit encoding (Section 6.3).
type CategoricalDataset = dataset.Categorical

// NewCategoricalDataset synthesizes n correlated records over the given
// attribute cardinalities.
func NewCategoricalDataset(n int, cardinalities []int, seed uint64) (*CategoricalDataset, error) {
	return dataset.NewCategoricalCorrelated(n, cardinalities, seed)
}

// ESConfig parameterizes the InpES protocol: the Efron-Stein
// generalization of InpHT to categorical attributes conjectured in the
// paper's Section 6.3.
type ESConfig = efronstein.Config

// ESProtocol is the InpES protocol; its aggregator (assert to
// *ESAggregator) additionally answers EstimateCategorical queries in
// native category space.
type ESProtocol = efronstein.Protocol

// ESAggregator is the InpES aggregator.
type ESAggregator = efronstein.Aggregator

// NewES constructs the InpES protocol. Run it with Simulate over
// bit-group-encoded categorical records (CategoricalDataset.EncodeBinary).
func NewES(cfg ESConfig) (*ESProtocol, error) { return efronstein.New(cfg) }

// Conjunction is a set of attribute=value terms interpreted as their
// logical AND — the workload the paper's introduction motivates.
type Conjunction = query.Conjunction

// ConjunctionTerm fixes one attribute to a boolean value.
type ConjunctionTerm = query.Term

// ParseConjunction reads a conjunction such as "CC=1 AND Tip=0",
// resolving attribute names through the resolver (e.g.
// Dataset.AttributeIndex).
func ParseConjunction(s string, resolve func(name string) int) (Conjunction, error) {
	return query.Parse(s, resolve)
}

// EvaluateConjunction answers the fraction of the population matching
// the conjunction, from any marginal estimator (an LDP aggregator or
// ExactEstimator).
func EvaluateConjunction(est marginal.Estimator, c Conjunction, d int) (float64, error) {
	return query.Evaluate(est, c, d)
}

// MaterializeCube materializes every j-way marginal for j <= k, keyed by
// attribute mask — the OLAP datacube slice.
func MaterializeCube(est marginal.Estimator, d, k int) (map[uint64]*Table, error) {
	return query.Cube(est, d, k)
}

// MarginalView is one immutable materialized epoch: every k-way
// collection table reconstructed from a single snapshot, made mutually
// consistent, and frozen for lock-free serving. It satisfies the same
// estimator interface as an aggregator, so it drops into conjunction
// evaluation, Chow-Liu fitting, and chi-squared testing.
type MarginalView = view.View

// ViewOptions tunes the per-epoch post-processing of BuildView and of a
// ViewEngine's epochs: consistency rounds and simplex projection.
type ViewOptions = view.Options

// ViewEngine owns the materialized view of a deployment, rebuilding it
// on a refresh policy and publishing epochs through an atomic pointer so
// readers never take a lock.
type ViewEngine = view.Engine

// ViewEngineOptions configures NewViewEngine (refresh policy and build
// post-processing).
type ViewEngineOptions = view.EngineOptions

// RefreshPolicy selects when a ViewEngine rebuilds on its own: a
// wall-time interval, a report-count delta, or neither (manual Refresh
// only).
type RefreshPolicy = view.Policy

// BuildView materializes a view from one aggregator snapshot: all
// C(d,k) k-way marginals reconstructed, consistency enforced, simplex
// projected. It is the build a ViewEngine runs for every epoch: equal
// snapshots build bit-identical views, and an engine epoch over the same
// state is bit-identical to them.
func BuildView(snap Aggregator, p Protocol, opts ViewOptions) (*MarginalView, error) {
	return view.Build(snap, p, opts)
}

// NewViewEngine builds the first epoch over the sharded aggregator and
// starts the refresh policy (if any). Close the engine to stop it. It
// refuses the InpEM and InpOLH baselines, whose aggregators cannot be
// unmerged; build their views with BuildView.
func NewViewEngine(src *ShardedAggregator, p Protocol, opts ViewEngineOptions) (*ViewEngine, error) {
	return view.NewEngine(src, p, opts)
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

// FsyncPolicy selects when WAL appends are made durable.
type FsyncPolicy = store.FsyncPolicy

// The WAL fsync policies: group-committed fsync per ack, timer-batched
// fsync, or none.
const (
	FsyncAlways   = store.FsyncAlways
	FsyncInterval = store.FsyncInterval
	FsyncOff      = store.FsyncOff
)

// StoreRecoveryStats describes what OpenStore reconstructed from a data
// directory.
type StoreRecoveryStats = store.RecoveryStats

// OpenStore recovers the deployment state persisted in dir (creating
// it if needed) and starts the write-ahead log. Pass the store to the
// HTTP server (internal/server Options.Store) to make ingestion
// durable; every aggregator state round-trips through the codec because
// Aggregator.MarshalState is canonical for all protocols.
func OpenStore(dir string, p Protocol, opts StoreOptions) (*ReportStore, error) {
	return store.Open(dir, p, opts)
}

// ConsistencyOptions controls EnforceConsistency.
type ConsistencyOptions = consistency.Options

// EnforceConsistency adjusts a set of estimated marginal tables in place
// so that overlapping marginals agree on their shared sub-marginals,
// preserving each table's total mass. weights (nil = uniform) set
// per-table trust.
func EnforceConsistency(tables []*Table, weights []float64, opts ConsistencyOptions) error {
	return consistency.Enforce(tables, weights, opts)
}

// MaxDisagreement measures the largest gap between sub-marginals implied
// by any two tables on shared attributes (0 = fully consistent).
func MaxDisagreement(tables []*Table) (float64, error) {
	return consistency.MaxDisagreement(tables)
}

// BoundParams carries the parameters of the paper's theoretical error
// bounds.
type BoundParams = bounds.Params

// TheoreticalErrorBound returns the paper's total-variation error bound
// (up to logarithmic factors) for the named protocol — Theorems 4.3-4.5
// and Lemma 4.6.
func TheoreticalErrorBound(protocol string, p BoundParams) (float64, error) {
	return bounds.ForProtocol(protocol, p)
}
