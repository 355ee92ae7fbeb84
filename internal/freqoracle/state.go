package freqoracle

import (
	"fmt"

	"ldpmarginals/internal/wire"
)

// State codecs for the frequency-oracle aggregators; see
// core.Aggregator. The kind bytes continue the internal/core numbering
// and are part of the persisted snapshot format: do not renumber.
const (
	stateKindOLH  byte = 8
	stateKindHCMS byte = 9
	stateVersion  byte = 1
)

// MarshalState serializes the stored (hash seed, perturbed value)
// pairs. Like EM, OLH keeps raw reports rather than counters, so the
// state preserves their arrival order.
func (a *olhAgg) MarshalState() ([]byte, error) {
	e := wire.NewStateEncoder(stateKindOLH, stateVersion)
	e.Uint64s(a.seeds)
	e.Uint64s(a.values)
	return e.Bytes(), nil
}

// UnmarshalState replaces the stored report pairs; see core.Aggregator.
func (a *olhAgg) UnmarshalState(data []byte) error {
	d, err := wire.NewStateDecoder(data, stateKindOLH, stateVersion)
	if err != nil {
		return fmt.Errorf("freqoracle: OLH state: %w", err)
	}
	seeds := d.Uint64s(-1)
	values := d.Uint64s(len(seeds))
	if err := d.Finish(); err != nil {
		return fmt.Errorf("freqoracle: OLH state: %w", err)
	}
	for i, v := range values {
		if v >= a.o.g {
			return fmt.Errorf("freqoracle: OLH state: report %d value %d outside hash range %d", i, v, a.o.g)
		}
	}
	a.seeds, a.values, a.decoded = seeds, values, nil
	return nil
}
