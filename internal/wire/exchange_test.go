package wire

import (
	"errors"
	"strings"
	"testing"
)

func TestStateFrameRejectsBadNodeIDs(t *testing.T) {
	if _, err := EncodeStateFrame(StateFrame{NodeID: ""}); err == nil {
		t.Error("empty node id was accepted")
	}
	long := strings.Repeat("x", MaxNodeIDLen+1)
	if _, err := EncodeStateFrame(StateFrame{NodeID: long}); err == nil {
		t.Error("oversized node id was accepted")
	}
	if _, err := EncodeStateFrame(StateFrame{NodeID: "ok", N: -1}); err == nil {
		t.Error("negative report count was accepted")
	}
}

// FuzzDecodeStateFrame holds the component decoder to the LDPX frames of
// older builds, which EncodeStateFrame still writes for the benchmark:
// whatever bytes follow the LDPX magic, no frame decodes, and one long
// enough to be a frame whose checksum holds is refused as ErrFrameFormat.
func FuzzDecodeStateFrame(f *testing.F) {
	seed, _ := EncodeStateFrame(StateFrame{NodeID: "edge-1", Version: 9, N: 2, State: []byte{3, 1, 2, 7}})
	f.Add(seed)
	f.Add([]byte("LDPX"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := append([]byte(exchangeMagic), data[min(len(data), len(exchangeMagic)):]...)
		if _, err := DecodeComponentFrame(frame, testMaxRaw); err == nil {
			t.Fatalf("LDPX bytes %x decoded", frame)
		}
		sealed := reseal(append(frame, make([]byte, exchangeCRCLen)...))
		if _, err := DecodeComponentFrame(sealed, testMaxRaw); err == nil ||
			len(sealed) >= len(deltaMagic)+2+exchangeCRCLen && !errors.Is(err, ErrFrameFormat) {
			t.Fatalf("LDPX frame %x: error %v, want ErrFrameFormat", sealed, err)
		}
	})
}
