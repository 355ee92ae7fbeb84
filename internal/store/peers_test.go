package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/wire"
)

func peersTestProtocol(t *testing.T) core.Protocol {
	t.Helper()
	p, err := core.New(core.MargHT, core.Config{D: 6, K: 2, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func peerStateBlob(t *testing.T, p core.Protocol, n int, seed uint64) ([]byte, int) {
	t.Helper()
	agg := p.NewAggregator()
	client := p.NewClient()
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		rep, err := client.Perturb(uint64(i%64), r)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Consume(rep); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := agg.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return blob, agg.N()
}

func TestPeerStatesRoundTrip(t *testing.T) {
	p := peersTestProtocol(t)
	dir := t.TempDir()
	blob1, n1 := peerStateBlob(t, p, 40, 1)
	blob2, n2 := peerStateBlob(t, p, 25, 2)
	blob3, n3 := peerStateBlob(t, p, 15, 4)
	in := []PeerFrame{
		// A multi-component peer (a state accepted from an exporter that
		// shipped one component per shard).
		{URL: "http://10.0.0.1:8080", Frame: wire.ComponentFrame{NodeID: "edge-1", Version: 12, N: n1 + n3, Components: []wire.StateComponent{
			{ID: "edge-1/0", Version: 7, N: n1, State: blob1},
			{ID: "edge-1/1", Version: 12, N: n3, State: blob3},
		}}},
		{URL: "http://10.0.0.2:8080", Frame: wire.ComponentFrame{NodeID: "edge-2", Version: 99, N: n2, Components: []wire.StateComponent{
			{ID: "edge-2", Version: 99, N: n2, State: blob2},
		}}},
	}
	if err := SavePeerStates(dir, p, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadPeerStates(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("loaded %d peers, want %d", len(out), len(in))
	}
	for i := range in {
		got, want := out[i].Frame, in[i].Frame
		if out[i].URL != in[i].URL || got.NodeID != want.NodeID || got.Delta ||
			got.Version != want.Version || got.N != want.N ||
			len(got.Components) != len(want.Components) {
			t.Fatalf("peer %d: got %+v, want %+v", i, out[i], in[i])
		}
		for j := range want.Components {
			gc, wc := got.Components[j], want.Components[j]
			if gc.ID != wc.ID || gc.Version != wc.Version || gc.N != wc.N || !bytes.Equal(gc.State, wc.State) {
				t.Fatalf("peer %d component %d: got %+v, want %+v", i, j, gc, wc)
			}
		}
	}
	// Re-save with fewer peers replaces the file wholesale.
	if err := SavePeerStates(dir, p, in[:1]); err != nil {
		t.Fatal(err)
	}
	out, err = LoadPeerStates(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Frame.NodeID != "edge-1" {
		t.Fatalf("re-save: got %+v", out)
	}
}

// TestPeerStatesRefuseOlderFormats: a peer snapshot written by an older
// build — format 1 (single-blob LDPX frames) or format 2 (the LDPD frame
// of format 1) — fails to load with ErrPeerSnapshotFormat, whose message
// names the file to remove, though its checksum and config block hold.
func TestPeerStatesRefuseOlderFormats(t *testing.T) {
	p := peersTestProtocol(t)
	tag, err := encoding.TagForProtocol(p.Name())
	if err != nil {
		t.Fatal(err)
	}
	// Node "edge-1" at version 20 with 4 reports and a three-byte state,
	// in each format's frame, laid out by hand.
	seal := func(buf []byte) []byte {
		return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli)))
	}
	frames := map[byte][]byte{
		1: seal([]byte("LDPX\x01\x06edge-1\x14\x04\x03\x03\x01\x04")),
		2: seal([]byte("LDPD\x01\x00\x06edge-1\x14\x04\x01\x06edge-1\x14\x04\x00\x03\x03\x03\x01\x04")),
	}
	for format, frame := range frames {
		url := "http://10.0.0.9:8080"
		buf := appendConfig(append([]byte(peersMagic), format), tag, p.Config())
		buf = binary.AppendUvarint(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(url)))
		buf = append(buf, url...)
		buf = wire.AppendFrame(buf, frame)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, peersFile), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadPeerStates(dir, p)
		if !errors.Is(err, ErrPeerSnapshotFormat) || !strings.Contains(err.Error(), "cluster.peers") {
			t.Errorf("format %d: error %v, want ErrPeerSnapshotFormat naming cluster.peers", format, err)
		}
	}
}

func TestPeerStatesMissingFileIsEmptyFleet(t *testing.T) {
	p := peersTestProtocol(t)
	out, err := LoadPeerStates(t.TempDir(), p)
	if err != nil || out != nil {
		t.Fatalf("missing file: got %v, %v; want nil, nil", out, err)
	}
}

func TestPeerStatesRejectCorruptionAndForeignConfig(t *testing.T) {
	p := peersTestProtocol(t)
	dir := t.TempDir()
	blob, n := peerStateBlob(t, p, 30, 3)
	if err := SavePeerStates(dir, p, []PeerFrame{{URL: "http://e", Frame: wire.ComponentFrame{NodeID: "edge-1", Version: 1, N: n, Components: []wire.StateComponent{
		{ID: "edge-1", Version: 1, N: n, State: blob},
	}}}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, peersFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte mid-file: the trailing CRC must reject it.
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x20
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPeerStates(dir, p); err == nil {
		t.Error("corrupt peer snapshot was loaded")
	}
	// Restore, then load under a different deployment config: the
	// config block must reject it.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	other, err := core.New(core.MargHT, core.Config{D: 7, K: 2, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPeerStates(dir, other); err == nil {
		t.Error("peer snapshot of a different deployment was loaded")
	}
}
