// Package core implements the paper's primary contribution: six protocols
// for k-way marginal release under epsilon-local differential privacy
// (Section 4), behind a common Protocol / Client / Aggregator interface.
//
// The protocols differ along two axes — the view of the data (the full
// input distribution vs. a randomly sampled marginal) and the release
// primitive (parallel randomized response, preferential sampling, or
// randomized response on a sampled Hadamard coefficient):
//
//	             PRR        PS (GRR)    Hadamard+RR
//	input view   InpRR      InpPS       InpHT
//	marginal     MargRR     MargPS      MargHT
//
// Every client emits a single Report per user, every aggregator consumes
// reports and answers Estimate(beta) for any |beta| <= K, and aggregation
// is associative (Merge) so populations can be simulated in parallel.
//
// All six aggregators keep their state in one type, CounterBlock
// (block.go): the report count, per-group user counts and flat counter
// planes under one of three invariant classes — bitmap (InpRR, MargRR),
// sampling (InpPS, MargPS), sign (InpHT, MargHT). The block owns N,
// Merge, Unmerge, CopyStateFrom, MarshalState, UnmarshalState and the
// validation of foreign counters; a protocol file holds its client, its
// Consume and ConsumeBatch (report -> increments), its reconstruction
// (block -> estimate) and its state kind byte, and that is all a new
// counter-keeping protocol has to write.
package core

import (
	"fmt"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/rng"
)

// MaxInputAttributes bounds d for the input-materializing protocols
// InpRR and InpPS, which must handle 2^d cells. The paper itself advises
// against these methods beyond small d (Section 5.2).
const MaxInputAttributes = 20

// Kind identifies one of the six protocols.
type Kind int

// The six protocol kinds, in the order of the paper's Table 2.
const (
	InpRR Kind = iota
	InpPS
	InpHT
	MargRR
	MargPS
	MargHT
)

// AllKinds lists every protocol kind in Table 2 order.
func AllKinds() []Kind {
	return []Kind{InpRR, InpPS, InpHT, MargRR, MargPS, MargHT}
}

// String returns the paper's name for the protocol.
func (k Kind) String() string {
	switch k {
	case InpRR:
		return "InpRR"
	case InpPS:
		return "InpPS"
	case InpHT:
		return "InpHT"
	case MargRR:
		return "MargRR"
	case MargPS:
		return "MargPS"
	case MargHT:
		return "MargHT"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config carries the shared parameters of a marginal-release deployment.
type Config struct {
	// D is the number of binary attributes per user.
	D int
	// K is the largest marginal size the collection must support; any
	// |beta| <= K is answerable afterwards.
	K int
	// Epsilon is the local differential privacy parameter, shared by all
	// users.
	Epsilon float64
	// OptimizedPRR selects the Wang et al. probabilities for the
	// PRR-based protocols (the paper's default experimental setting);
	// false selects the vanilla symmetric eps/2 probabilities of
	// Fact 3.2.
	OptimizedPRR bool
}

// Validate checks the configuration ranges shared by all protocols.
func (c Config) Validate() error {
	if c.D < 1 || c.D > bitops.MaxAttributes {
		return fmt.Errorf("core: d=%d out of range (1..%d)", c.D, bitops.MaxAttributes)
	}
	if c.K < 1 || c.K > c.D {
		return fmt.Errorf("core: k=%d out of range (1..d=%d)", c.K, c.D)
	}
	if c.Epsilon <= 0 {
		return fmt.Errorf("core: epsilon must be positive, got %v", c.Epsilon)
	}
	return nil
}

// Report is the single message a user sends to the aggregator. Which
// fields are meaningful depends on the protocol:
//
//	InpRR:   Bits (2^d-bit bitmap)
//	InpPS:   Index (reported cell)
//	InpHT:   Index (coefficient mask), Sign
//	MargRR:  Beta (sampled marginal), Bits (2^k-bit bitmap)
//	MargPS:  Beta, Index (compact cell in the marginal)
//	MargHT:  Beta, Index (compact coefficient), Sign
type Report struct {
	Beta  uint64
	Index uint64
	Sign  int8
	Bits  []uint64
}

// Client produces one LDP report per user record.
type Client interface {
	// Perturb encodes and randomizes a user's record. The record is an
	// attribute bitmask within the protocol's 2^d domain.
	Perturb(record uint64, r *rng.RNG) (Report, error)
}

// Aggregator accumulates reports and reconstructs marginals. It also
// satisfies marginal.Estimator.
type Aggregator interface {
	// Consume incorporates one user report.
	Consume(rep Report) error
	// ConsumeBatch incorporates a batch of reports, amortizing the
	// per-report dispatch (and, for callers holding a lock around the
	// call, the per-report locking) overhead. It behaves exactly like
	// consuming the reports one by one: reports preceding a rejected
	// report remain consumed, and the returned error is a *BatchError
	// identifying the first rejected report.
	ConsumeBatch(reps []Report) error
	// Estimate reconstructs the marginal over beta, |beta| <= K.
	Estimate(beta uint64) (*marginal.Table, error)
	// Merge folds another aggregator of the same protocol into this one.
	Merge(other Aggregator) error
	// N returns the number of reports consumed.
	N() int
	// MarshalState serializes the accumulated state (integer counters)
	// into a self-describing blob. The encoding is canonical and
	// deterministic: equal states marshal byte-identically, and
	// UnmarshalState followed by MarshalState reproduces the input
	// byte-for-byte. The durable store (internal/store) persists these
	// blobs as counter snapshots.
	MarshalState() ([]byte, error)
	// UnmarshalState replaces the aggregator's state with a blob
	// produced by MarshalState on an aggregator of the same protocol and
	// configuration. A blob from a different protocol, configuration, or
	// a corrupted byte stream fails with an error and leaves the
	// receiver unchanged.
	UnmarshalState(data []byte) error
}

// BatchError reports the first rejected report of a ConsumeBatch call.
// Reports at positions < Index were consumed.
type BatchError struct {
	// Index is the position of the rejected report within the batch.
	Index int
	// Err is the rejection returned by Consume.
	Err error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("core: batch report %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// ConsumeAll is the reference ConsumeBatch implementation: it feeds the
// reports to Consume in order, wrapping the first rejection in a
// *BatchError. Out-of-package aggregators delegate to it, and the two
// bitmap protocols (InpRR, MargRR) run the same loop over their concrete
// receivers; the four index protocols (InpPS, InpHT, MargPS, MargHT)
// replace it with a validate-and-increment loop that makes no call per
// report and must stay indistinguishable from this one: same state, same
// N, same BatchError.Index, same consumed prefix
// (TestConsumeBatchMatchesConsume).
func ConsumeAll(a Aggregator, reps []Report) error {
	for i := range reps {
		if err := a.Consume(reps[i]); err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	return nil
}

// Protocol couples a client construction with its aggregator and cost
// accounting. Implementations are immutable after construction and safe
// for concurrent use.
type Protocol interface {
	// Name returns the paper's protocol name.
	Name() string
	// Config returns the deployment parameters.
	Config() Config
	// CommunicationBits is the per-user message size in bits (Table 2).
	CommunicationBits() int
	// NewClient returns a client for this protocol.
	NewClient() Client
	// NewAggregator returns an empty aggregator for this protocol.
	NewAggregator() Aggregator
}

// New constructs the protocol of the given kind.
func New(kind Kind, cfg Config) (Protocol, error) {
	switch kind {
	case InpRR:
		return NewInpRR(cfg)
	case InpPS:
		return NewInpPS(cfg)
	case InpHT:
		return NewInpHT(cfg)
	case MargRR:
		return NewMargRR(cfg)
	case MargPS:
		return NewMargPS(cfg)
	case MargHT:
		return NewMargHT(cfg)
	default:
		return nil, fmt.Errorf("core: unknown protocol kind %d", int(kind))
	}
}

// margIndex is the shared bookkeeping of the marginal-view protocols: the
// list C of all C(d,k) k-way marginals and the inverse lookup.
type margIndex struct {
	masks []uint64
	pos   maskPos
}

func newMargIndex(d, k int) *margIndex {
	masks := bitops.MasksWithExactlyK(d, k)
	return &margIndex{masks: masks, pos: newMaskPos(d, masks)}
}

// maskPos maps a collected attribute mask — a marginal of C, a Hadamard
// coefficient of T — to its position in the collection: the lookup
// every report of the sampled-mask protocols pays once. Up to
// denseMaskBits attributes it is a direct table over all 2^d masks
// (one load, no hashing); above that, where such a table would not fit,
// a hash map. Exactly one of the two is non-nil.
type maskPos struct {
	dense  []int32 // position+1 by mask; 0 = not collected
	sparse map[uint64]int
}

// denseMaskBits is the largest d with a dense maskPos: 2^20 int32s,
// 4 MiB per protocol instance.
const denseMaskBits = MaxInputAttributes

func newMaskPos(d int, masks []uint64) maskPos {
	if d <= denseMaskBits {
		dense := make([]int32, 1<<uint(d))
		for i, m := range masks {
			dense[m] = int32(i + 1)
		}
		return maskPos{dense: dense}
	}
	sparse := make(map[uint64]int, len(masks))
	for i, m := range masks {
		sparse[m] = i
	}
	return maskPos{sparse: sparse}
}

// lookup returns mask's position and whether it is collected.
func (mp *maskPos) lookup(mask uint64) (int, bool) {
	if mp.dense != nil {
		if mask >= uint64(len(mp.dense)) {
			return 0, false
		}
		p := mp.dense[mask]
		return int(p) - 1, p != 0
	}
	p, ok := mp.sparse[mask]
	return p, ok
}

// supersetsOf returns the positions in C of the k-way marginals
// containing beta.
func (mi *margIndex) supersetsOf(beta uint64) []int {
	var out []int
	for i, m := range mi.masks {
		if bitops.IsSubset(beta, m) {
			out = append(out, i)
		}
	}
	return out
}

// kWayTables is KWayTablesInto of the marginal-view protocols: every
// table of the collection from its own accumulator through kWayInto,
// across goroutines, with its per-marginal user count (each user lands
// in exactly one table). The arena's mask order is the index's.
func (mi *margIndex) kWayTables(a *KWayArena, kWayInto func(pos int, dst *marginal.Table) (int, error)) error {
	errs := make([]error, len(mi.masks))
	parallelFor(len(mi.masks), func(i int) {
		a.Users[i], errs[i] = kWayInto(i, a.Tables[i])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: reconstructing %b: %w", mi.masks[i], err)
		}
	}
	return nil
}

// estimate answers Estimate(beta), |beta| <= k, of a marginal-view
// aggregator of the named protocol holding n reports, given kWayInto,
// which reconstructs the k-way table at a position in C into a table and
// returns its user count. Estimates from every k-way superset of beta
// are marginalized down to beta and averaged weighted by their user
// counts.
//
// Reconstructing and marginalizing each superset table is the expensive
// step (an inverse transform or an unbiasing pass over 2^k cells), so
// the supersets fan out across goroutines; the weighted average is then
// reduced sequentially in superset order, making the result
// bit-identical to the sequential loop for any GOMAXPROCS. kWayInto must
// be safe for concurrent calls with distinct positions (the aggregators'
// reconstructions only read accumulator state).
func (mi *margIndex) estimate(name string, cfg Config, n int, beta uint64, kWayInto func(pos int, dst *marginal.Table) (int, error)) (*marginal.Table, error) {
	if err := checkBetaWithin(beta, cfg); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("core: %s aggregator has no reports", name)
	}
	kWay := func(pos int) (*marginal.Table, int, error) {
		t, err := marginal.New(mi.masks[pos])
		if err != nil {
			return nil, 0, err
		}
		users, err := kWayInto(pos, t)
		return t, users, err
	}
	if p, ok := mi.pos.lookup(beta); ok {
		t, _, err := kWay(p)
		return t, err
	}
	supers := mi.supersetsOf(beta)
	if len(supers) == 0 {
		return nil, fmt.Errorf("core: marginal %b is not contained in any collected %d-way marginal", beta, bitops.OnesCount(mi.masks[0]))
	}
	out, err := marginal.New(beta)
	if err != nil {
		return nil, err
	}
	type weighted struct {
		sub *marginal.Table // scaled by its user count; nil when n == 0
		n   int
		err error
	}
	subs := make([]weighted, len(supers))
	parallelFor(len(supers), func(i int) {
		t, n, err := kWay(supers[i])
		if err != nil {
			subs[i].err = err
			return
		}
		if n == 0 {
			return
		}
		sub, err := t.MarginalizeTo(beta)
		if err != nil {
			subs[i].err = err
			return
		}
		sub.Scale(float64(n))
		subs[i] = weighted{sub: sub, n: n}
	})
	var weight float64
	for i := range subs {
		if subs[i].err != nil {
			return nil, subs[i].err
		}
		if subs[i].sub == nil {
			continue
		}
		if err := out.Add(subs[i].sub); err != nil {
			return nil, err
		}
		weight += float64(subs[i].n)
	}
	if weight == 0 {
		return marginal.Uniform(beta)
	}
	out.Scale(1 / weight)
	return out, nil
}
