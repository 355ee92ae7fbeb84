package core

import (
	"fmt"
	"math"

	"ldpmarginals/internal/wire"
)

// State kind bytes of the six protocols; out-of-package protocols
// continue the numbering (internal/em 7, internal/freqoracle 8 and 9,
// internal/efronstein 10). They are part of the persisted snapshot
// format: do not renumber. They equal the encoding wire tags of the
// served protocols.
const (
	stateKindInpRR  byte = 1
	stateKindInpPS  byte = 2
	stateKindInpHT  byte = 3
	stateKindMargRR byte = 4
	stateKindMargPS byte = 5
	stateKindMargHT byte = 6

	stateVersion byte = 1
)

// CounterClass names the invariant a report's increments keep on a
// CounterBlock. Each is closed under addition, so a merge of valid
// states is valid, and each bounds every counter by the report count.
type CounterClass uint8

const (
	// BitmapCounters: one plane of per-cell 1-counts. A report may set
	// any of its group's cells, so a cell is at most the group's users
	// (InpRR, MargRR).
	BitmapCounters CounterClass = iota
	// SamplingCounters: one plane of per-cell report counts. A report
	// increments exactly one cell of its group, so a group's cells sum
	// to its users (InpPS, MargPS).
	SamplingCounters
	// SignCounters: two planes, a sum of ±1 and a count per cell. A
	// report adds ±1 and 1 to one cell of its group, so count >= 0,
	// |sum| <= count, and a group's counts sum to its users (InpHT,
	// MargHT, InpES, HCMS).
	SignCounters
)

// CounterBlock is the state every counter-keeping aggregator holds: the
// report count, the per-group user counts, and one (bitmap, sampling) or
// two (sign) flat group-major counter planes. A group is what a user
// samples before reporting — a marginal of C, a sketch row; a protocol
// whose users all report on the same cells is ungrouped, which is one
// group whose users is n and no users slice in the state.
//
// The block owns everything that is the same for every protocol because
// the counters are linear in the reports: Merge, Unmerge, CopyStateFrom,
// the state codec and the validation behind it. The six aggregators of
// this package embed it and so get those methods plus N; a protocol
// writes only how a report increments the planes and how the planes
// become an estimate. Not safe for concurrent use.
type CounterBlock struct {
	name   string // protocol name, for errors
	kind   byte   // state kind byte
	class  CounterClass
	stride int // cells per group

	n      int
	users  []int    // per group; nil when ungrouped
	cells  []uint64 // bitmap and sampling classes
	sums   []int64  // sign class: per-cell sum of reported ±1
	counts []int64  // sign class: per-cell report count
}

// NewCounterBlock returns an empty block of groups × cells counters per
// plane; groups == 0 means ungrouped.
func NewCounterBlock(name string, kind byte, class CounterClass, groups, cells int) CounterBlock {
	b := CounterBlock{name: name, kind: kind, class: class, stride: cells}
	if groups > 0 {
		b.users = make([]int, groups)
	}
	size := max(groups, 1) * cells
	if class == SignCounters {
		b.sums, b.counts = make([]int64, size), make([]int64, size)
	} else {
		b.cells = make([]uint64, size)
	}
	return b
}

// N returns the number of reports counted.
func (b *CounterBlock) N() int { return b.n }

// Counters returns the block itself. An aggregator embedding the block
// inherits the method; one holding it in a field forwards to it. It is
// how Merge, Unmerge and CopyStateFrom reach their argument's state.
func (b *CounterBlock) Counters() *CounterBlock { return b }

// span returns the bounds of a group's cells within a plane.
func (b *CounterBlock) span(group int) (lo, hi int) {
	return group * b.stride, (group + 1) * b.stride
}

// AddSign counts one ±1 report on a cell of a group (group 0 when
// ungrouped) of a sign-class block. The caller has validated all three.
func (b *CounterBlock) AddSign(group, cell int, sign int8) {
	i := group*b.stride + cell
	b.sums[i] += int64(sign)
	b.counts[i]++
	if b.users != nil {
		b.users[group]++
	}
	b.n++
}

// SignCell returns the sum of signs and the report count of one cell of
// a sign-class block.
func (b *CounterBlock) SignCell(group, cell int) (sum, count int64) {
	i := group*b.stride + cell
	return b.sums[i], b.counts[i]
}

// GroupUsers returns the number of reports counted on a group: all of
// them when the block is ungrouped.
func (b *CounterBlock) GroupUsers(group int) int {
	if b.users == nil {
		return b.n
	}
	return b.users[group]
}

// peer returns the block behind other after checking that it has this
// block's kind and geometry, so that the folds below can walk the two
// in lockstep.
func (b *CounterBlock) peer(other Aggregator, verb string) (*CounterBlock, error) {
	h, ok := other.(interface{ Counters() *CounterBlock })
	if !ok {
		return nil, fmt.Errorf("core: %s %T and %s aggregator", verb, other, b.name)
	}
	o := h.Counters()
	if o.kind != b.kind || o.stride != b.stride || len(o.users) != len(b.users) ||
		len(o.cells) != len(b.cells) || len(o.sums) != len(b.sums) {
		return nil, fmt.Errorf("core: %s %s state (kind %d, %d groups of %d cells) and %s aggregator (kind %d, %d groups of %d cells)",
			verb, o.name, o.kind, len(o.users), o.stride, b.name, b.kind, len(b.users), b.stride)
	}
	return o, nil
}

// addTo and subFrom are the two folds, over a plane or the users; peer
// has checked that the lengths agree.
func addTo[T int | int64 | uint64](dst, src []T) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
}

func subFrom[T int | int64 | uint64](dst, src []T) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] -= v
	}
}

// Merge adds other's counters to the receiver's. other must be an
// aggregator over a block of the same kind and geometry; anything else
// is an error and leaves the receiver unchanged.
func (b *CounterBlock) Merge(other Aggregator) error {
	o, err := b.peer(other, "merging")
	if err != nil {
		return err
	}
	if o.n > math.MaxInt-b.n {
		// Every counter is bounded by n, so this is the only sum of the
		// fold that could wrap.
		return fmt.Errorf("core: merging %d reports into %s aggregator holding %d overflows", o.n, b.name, b.n)
	}
	addTo(b.users, o.users)
	addTo(b.cells, o.cells)
	addTo(b.sums, o.sums)
	addTo(b.counts, o.counts)
	b.n += o.n
	return nil
}

// Unmerge subtracts a previously merged contribution — the exact integer
// inverse of Merge, used by delta snapshots to replace a shard's stale
// contribution. What would be left is validated first: unmerging state
// that was never merged here leaves counters that no set of reports
// produces (or would wrap them), is rejected, and leaves the receiver
// unchanged.
func (b *CounterBlock) Unmerge(other Aggregator) error {
	o, err := b.peer(other, "unmerging")
	if err != nil {
		return err
	}
	if err := b.validate(o); err != nil {
		return fmt.Errorf("core: unmerging %s state never merged here: %w", b.name, err)
	}
	subFrom(b.users, o.users)
	subFrom(b.cells, o.cells)
	subFrom(b.sums, o.sums)
	subFrom(b.counts, o.counts)
	b.n -= o.n
	return nil
}

// CopyStateFrom replaces the receiver's state with a deep copy of
// other's, reusing the receiver's buffers (no allocation).
func (b *CounterBlock) CopyStateFrom(other Aggregator) error {
	o, err := b.peer(other, "copying")
	if err != nil {
		return err
	}
	copy(b.users, o.users)
	copy(b.cells, o.cells)
	copy(b.sums, o.sums)
	copy(b.counts, o.counts)
	b.n = o.n
	return nil
}

// MarshalState serializes the block; see Aggregator. The layout is the
// kind and version bytes, uvarint n, the count-prefixed users when
// grouped, then group by group the count-prefixed cells (uvarint) or
// sums and counts (zig-zag varint).
func (b *CounterBlock) MarshalState() ([]byte, error) {
	e := wire.NewStateEncoder(b.kind, stateVersion)
	e.Uvarint(uint64(b.n))
	if b.users != nil {
		e.Counts(b.users)
	}
	for lo, hi := 0, b.stride; hi <= len(b.cells); lo, hi = hi, hi+b.stride {
		e.Uint64s(b.cells[lo:hi])
	}
	for lo, hi := 0, b.stride; hi <= len(b.sums); lo, hi = hi, hi+b.stride {
		e.Int64s(b.sums[lo:hi])
		e.Int64s(b.counts[lo:hi])
	}
	return e.Bytes(), nil
}

// UnmarshalState replaces the block's state with a MarshalState blob of
// the same kind and geometry; see Aggregator. The decoded counters are
// validated before they are installed, so a blob from another
// deployment, a corrupted one or one crafted to wrap a sum is rejected
// and leaves the receiver unchanged.
func (b *CounterBlock) UnmarshalState(data []byte) error {
	d, err := wire.NewStateDecoder(data, b.kind, stateVersion)
	if err != nil {
		return fmt.Errorf("core: %s state: %w", b.name, err)
	}
	nb := NewCounterBlock(b.name, b.kind, b.class, len(b.users), b.stride)
	nb.n = d.Count()
	if nb.users != nil {
		d.CountsInto(nb.users)
	}
	for lo, hi := 0, nb.stride; hi <= len(nb.cells); lo, hi = hi, hi+nb.stride {
		d.Uint64sInto(nb.cells[lo:hi])
	}
	for lo, hi := 0, nb.stride; hi <= len(nb.sums); lo, hi = hi, hi+nb.stride {
		d.Int64sInto(nb.sums[lo:hi])
		d.Int64sInto(nb.counts[lo:hi])
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("core: %s state: %w", b.name, err)
	}
	if err := nb.validate(nil); err != nil {
		return fmt.Errorf("core: %s state: %w", b.name, err)
	}
	*b = nb
	return nil
}

// validate checks the class invariants on the state b − sub (on b itself
// when sub is nil) without writing to either. sub has b's geometry and,
// like every block in memory, already holds a valid state, so no
// difference taken here overflows. No sum is formed that could wrap:
// each counter is checked against what is left of its group's users
// before it is subtracted from that, and each group's users against
// what is left of n.
func (b *CounterBlock) validate(sub *CounterBlock) error {
	n := b.n
	if sub != nil {
		n -= sub.n
	}
	if n < 0 {
		return fmt.Errorf("%d reports would be left", n)
	}
	left := n // reports not yet found in a group
	for g := range max(len(b.users), 1) {
		users := n
		if b.users != nil {
			users = b.users[g]
			if sub != nil {
				users -= sub.users[g]
			}
			if users < 0 || users > left {
				return fmt.Errorf("group %d has %d users, %d of %d reports unaccounted for", g, users, left, n)
			}
			left -= users
		}
		if err := b.validateGroup(sub, g, users); err != nil {
			return err
		}
	}
	if b.users != nil && left != 0 {
		return fmt.Errorf("per-group users sum to %d, want %d reports", n-left, n)
	}
	return nil
}

// validateGroup checks one group's counters of b − sub against the
// group's user count. The subtrahend's slices are empty when sub is nil
// and as long as the group otherwise; the loops ask "i < len" and not
// "!= nil" so that the compiler drops the bounds checks (a fifth of the
// cost of unmerging a 2^16-cell plane).
func (b *CounterBlock) validateGroup(sub *CounterBlock, g, users int) error {
	lo, hi := b.span(g)
	if b.class == SignCounters {
		sums := b.sums[lo:hi]
		counts := b.counts[lo:hi][:len(sums)]
		var subSums, subCounts []int64
		if sub != nil {
			subSums, subCounts = sub.sums[lo:hi][:len(sums)], sub.counts[lo:hi][:len(sums)]
		}
		room := int64(users) // users not yet found in a cell
		for i, s := range sums {
			c := counts[i]
			if i < len(subSums) {
				s, c = s-subSums[i], c-subCounts[i]
			}
			if c < 0 || c > room || s > c || s < -c {
				return fmt.Errorf("group %d cell %d has sum %d over %d reports, %d of %d users unaccounted for", g, i, s, c, room, users)
			}
			room -= c
		}
		if room != 0 {
			return fmt.Errorf("group %d counts sum to %d, want %d users", g, int64(users)-room, users)
		}
		return nil
	}
	cells := b.cells[lo:hi]
	var subCells []uint64
	if sub != nil {
		subCells = sub.cells[lo:hi][:len(cells)]
	}
	sampling := b.class == SamplingCounters
	room := uint64(users)
	for i, v := range cells {
		if i < len(subCells) {
			if subCells[i] > v {
				return fmt.Errorf("group %d cell %d would underflow (%d > %d)", g, i, subCells[i], v)
			}
			v -= subCells[i]
		}
		if v > room {
			return fmt.Errorf("group %d cell %d count %d exceeds %d of %d users", g, i, v, room, users)
		}
		if sampling {
			room -= v
		}
	}
	if sampling && room != 0 {
		return fmt.Errorf("group %d cells sum to %d, want %d users", g, uint64(users)-room, users)
	}
	return nil
}
