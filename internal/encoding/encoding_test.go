package encoding

import (
	"strings"
	"testing"
	"testing/quick"

	"ldpmarginals/internal/core"
)

func TestTagForProtocol(t *testing.T) {
	names := []string{"InpPS", "InpHT", "MargRR", "MargPS", "MargHT", "InpHTCMS"}
	seen := map[Tag]bool{}
	for _, name := range names {
		tag, err := TagForProtocol(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if seen[tag] {
			t.Errorf("tag %d reused", tag)
		}
		seen[tag] = true
	}
	for _, name := range []string{"Nope", "InpRR", "InpEM", "InpOLH"} {
		if _, err := TagForProtocol(name); err == nil {
			t.Errorf("%s: unserved protocol has a tag", name)
		}
	}
	// A retired protocol is refused by its name and old tag, and told
	// where it still runs.
	if _, err := TagForProtocol("InpRR"); err == nil || !strings.Contains(err.Error(), "InpRR (tag 1)") || !strings.Contains(err.Error(), "ldpmarg") {
		t.Errorf("InpRR refusal %v: want it named with its tag, pointing at ldpmarg", err)
	}
	for tag, want := range map[Tag]string{TagInpHT: "InpHT (tag 3)", 1: "InpRR (tag 1)", 7: "InpEM (tag 7)", 8: "InpOLH (tag 8)", 12: "tag 12"} {
		if got := TagName(tag); got != want {
			t.Errorf("TagName(%d) = %q, want %q", tag, got, want)
		}
	}
}

func roundTrip(t *testing.T, name string, rep core.Report) core.Report {
	t.Helper()
	frame, err := Marshal(name, rep)
	if err != nil {
		t.Fatalf("%s marshal: %v", name, err)
	}
	tag, got, err := Unmarshal(frame)
	if err != nil {
		t.Fatalf("%s unmarshal: %v", name, err)
	}
	want, _ := TagForProtocol(name)
	if tag != want {
		t.Fatalf("%s tag = %d, want %d", name, tag, want)
	}
	return got
}

func reportsEqual(a, b core.Report) bool {
	if a.Beta != b.Beta || a.Index != b.Index || a.Sign != b.Sign {
		return false
	}
	if len(a.Bits) != len(b.Bits) {
		return false
	}
	for i := range a.Bits {
		if a.Bits[i] != b.Bits[i] {
			return false
		}
	}
	return true
}

func TestRoundTripAllProtocols(t *testing.T) {
	cases := map[string]core.Report{
		"InpPS":    {Index: 123456},
		"InpHT":    {Index: 0b1010, Sign: -1},
		"MargRR":   {Beta: 0b0110, Bits: []uint64{7}},
		"MargPS":   {Beta: 0b0110, Index: 3},
		"MargHT":   {Beta: 0b0110, Index: 2, Sign: 1},
		"InpHTCMS": {Beta: 4, Index: 200, Sign: -1},
	}
	for name, rep := range cases {
		got := roundTrip(t, name, rep)
		// Normalize: Unmarshal only fills fields the protocol carries.
		if !reportsEqual(got, normalizeFor(name, rep)) {
			t.Errorf("%s round trip: got %+v, want %+v", name, got, rep)
		}
	}
}

// normalizeFor zeroes fields the wire format does not carry for the
// protocol (none, today — every used field is carried).
func normalizeFor(_ string, rep core.Report) core.Report { return rep }

func TestRoundTripPropertyHT(t *testing.T) {
	f := func(index uint64, positive bool) bool {
		sign := int8(-1)
		if positive {
			sign = 1
		}
		rep := core.Report{Index: index, Sign: sign}
		frame, err := Marshal("InpHT", rep)
		if err != nil {
			return false
		}
		_, got, err := Unmarshal(frame)
		return err == nil && got.Index == index && got.Sign == sign
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundTripPropertyMargPS(t *testing.T) {
	f := func(beta, index uint64) bool {
		rep := core.Report{Beta: beta, Index: index}
		frame, err := Marshal("MargPS", rep)
		if err != nil {
			return false
		}
		_, got, err := Unmarshal(frame)
		return err == nil && got.Beta == beta && got.Index == index
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarshalRejectsBadSign(t *testing.T) {
	if _, err := Marshal("InpHT", core.Report{Index: 1, Sign: 0}); err == nil {
		t.Error("sign 0 should fail to marshal")
	}
	if _, err := Marshal("MargHT", core.Report{Beta: 1, Index: 1, Sign: 5}); err == nil {
		t.Error("sign 5 should fail to marshal")
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	bad := [][]byte{
		nil,                            // empty
		{99},                           // unknown tag
		{byte(TagInpHT)},               // missing payload
		{byte(TagInpHT), 5},            // missing sign
		{byte(TagMargRR), 3, 2, 1},     // truncated bitmap
		{1, 1, 0xef, 0xbe, 0xad, 0xde}, // retired InpRR tag
		{7, 1},                         // retired InpEM tag
		{8, 1, 2, 3, 4, 5, 6, 7, 8, 3}, // retired InpOLH tag
		{byte(TagInpPS), 1, 0},         // trailing bytes
		{byte(TagInpHT), 1, 2},         // malformed sign byte
		{byte(TagMargPS), 0x80},        // truncated varint
	}
	for i, frame := range bad {
		if _, _, err := Unmarshal(frame); err == nil {
			t.Errorf("case %d: malformed frame accepted: %v", i, frame)
		}
	}
}

func TestUnmarshalRejectsHugeBitmap(t *testing.T) {
	// Beta 3, then a varint for 1<<20 words (over the cap).
	frame := []byte{byte(TagMargRR), 3, 0x80, 0x80, 0x40}
	if _, _, err := Unmarshal(frame); err == nil {
		t.Error("oversized bitmap should be rejected")
	}
}

func TestWireSizeMatchesTable2Ordering(t *testing.T) {
	// The wire sizes should preserve Table 2's ordering: the bitmap
	// largest, index-based protocols a handful of bytes.
	margrr, _ := Marshal("MargRR", core.Report{Beta: 0xff, Bits: make([]uint64, 4)}) // k=8: 256 bits
	inpht, _ := Marshal("InpHT", core.Report{Index: 0b11, Sign: 1})
	margps, _ := Marshal("MargPS", core.Report{Beta: 0b11, Index: 2})
	if len(margrr) <= len(inpht) || len(margrr) <= len(margps) {
		t.Errorf("MargRR frame (%dB) should dwarf InpHT (%dB) and MargPS (%dB)",
			len(margrr), len(inpht), len(margps))
	}
	if len(inpht) > 12 || len(margps) > 12 {
		t.Errorf("index protocols should be a few bytes: InpHT=%dB MargPS=%dB", len(inpht), len(margps))
	}
}
