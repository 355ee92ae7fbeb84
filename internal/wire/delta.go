package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Componentized state-exchange frame, the one form a node serves from
// GET /state and a coordinator persists its peers in. It carries the
// exporter's state as named *components* — an edge's merged state (or
// window), or a coordinator's held peer contributions passed through
// unchanged — each labeled with its own version. A frame is either
// *full* (every component) or a *delta* against a base version the
// puller acknowledged via the ?since=/If-None-Match handshake: only the
// components whose version moved since the base, plus the ids that
// disappeared. Layout:
//
//	"LDPD", format version byte, flags byte (bit0: delta),
//	uvarint node-id length, node-id bytes,
//	uvarint frame version,
//	uvarint frame version minus base version (delta frames only, 1..version),
//	uvarint total report count,
//	uvarint component count,
//	repeat (ids strictly increasing):
//	  encoding byte (bit0: flate, bit1: diff, bit3: the diff is sparse,
//	    bit4: the exporter's own component),
//	  uvarint id length, id bytes,  (none of the three on the own
//	  uvarint component version,     component)
//	  uvarint component report count,
//	  uvarint raw state length,
//	  diff components only:
//	    uvarint component version minus base component version
//	      (not on the own component, whose base is the frame's),
//	    crc32c of the raw state (4 bytes LE), uvarint raw diff length,
//	  uvarint payload length, payload bytes,
//	uvarint removed-id count        (delta frames only),
//	repeat (ids strictly increasing): uvarint id length, id bytes,
//	crc32c of everything above (4 bytes LE)
//
// The frame names the exporter once: a single or edge node ships one
// component whose id, version and report count are the frame's node id,
// version and total, and it is marked by bit4 instead of repeating the
// three (shipped as a diff in a delta, the base its diff is against is
// the frame's base). Every other component, a coordinator's pass-through
// ones among them, is written in full. The form is canonical: the
// encoder uses bit4 wherever it applies, so the decoder refuses a frame
// that spells out what bit4 stands for, and bit4 on a diff in a full
// frame. A frame of any other format — an LDPD frame of format 1, or an
// LDPX single-blob frame (exchange.go), both from older builds — is
// refused with ErrFrameFormat.
//
// Component ids are globally unique across a fleet: a leaf exporter
// prefixes its own node id ("edge-1/17" for shard 17), and coordinators
// pass ids through unchanged, so a root coordinator can deduplicate and
// cycle-check constituents through any number of mid tiers. Components
// are sorted by id and each payload takes the smallest of its raw,
// flate.BestSpeed and flate.HuffmanOnly forms (earlier wins a tie), so an
// encoded frame is canonical for its logical content. A *diff* component
// (diff.go) carries, instead of the state, its per-counter difference
// from the version of that component the puller said it holds — every
// counter's (dense), or only the counters that moved and the gaps
// between them, packed bit by bit (sparse: bit3, never without bit1 and
// never with bit0, as the stream is not deflated); the decoder rebuilds
// the state from its own copy of that version and checks it against the
// declared length and checksum, so everything past the decoder sees
// whole canonical blobs either way. The encoder ships whichever of whole,
// dense diff and sparse diff is smallest, the earlier of two the same
// size (packer.component).
// Version labels carry a one-directional guarantee: equal labels may
// rarely hide a racing mutation for one pull round, but the exporter's
// delta bases are recorded conservatively, so a delta never *skips* a
// mutation a holder of that base is missing — at worst it re-ships an
// unchanged component.
const (
	deltaMagic         = "LDPD"
	deltaFormatVersion = 2

	deltaFlagDelta = 0x01

	// Component encoding bits.
	compEncFlate = 0x01 // payload is a deflate stream
	compEncDiff  = 0x02 // payload is a state diff, not a state
	compEncRice  = 0x08 // the diff is sparse (diff.go): with compEncDiff, without compEncFlate
	compEncOwn   = 0x10 // id, version and count are the frame's

	// MaxComponentIDLen bounds one component id: an originating node id
	// plus a "/"-separated local suffix (shard index).
	MaxComponentIDLen = MaxNodeIDLen + 64

	// MaxFrameComponents bounds the component (and removed-id) count of
	// one frame, keeping a hostile header from forcing a huge slice
	// allocation before any payload bytes are validated.
	MaxFrameComponents = 1 << 16
)

// ErrFrameFormat marks a state frame of a format this build does not
// speak: an LDPD frame of another format version, or an LDPX single-blob
// frame. Every node of a fleet runs one build; a node of another one
// fails here, by name, instead of misreading the frame.
var ErrFrameFormat = errors.New("wire: state frame format of another build")

// StateComponent is one named, versioned state blob inside a
// componentized frame.
type StateComponent struct {
	// ID names the component fleet-wide: "<origin-node-id>" or
	// "<origin-node-id>/<local-part>". Coordinators pass ids through
	// unchanged across tiers.
	ID string
	// Version labels the component's state with the exporter-side
	// mutation counter (salted per process); equal (ID, Version) implies
	// equal State under the one-directional guarantee above.
	Version uint64
	// N is the component state's report count.
	N int
	// State is the component's canonical Aggregator.MarshalState blob.
	State []byte
	// Base, on a component to encode, is the version of it the puller
	// holds: the encoder ships State as a diff against Base.State when
	// that is smaller than State whole. On a decoded component it is the
	// base a shipped diff was applied to, nil when State arrived whole.
	Base *ComponentBase
}

// ComponentFrame is a componentized state export: full, or a delta
// against BaseVersion.
type ComponentFrame struct {
	// NodeID names the exporting process.
	NodeID string
	// Version labels the whole export (the exporter's top-level state
	// version), read before any component state was captured.
	Version uint64
	// Delta marks a delta frame; BaseVersion is then the export version
	// the shipped components and removals are relative to.
	Delta       bool
	BaseVersion uint64
	// N is the exporter's total report count across all components (not
	// only the shipped ones, for a delta).
	N int
	// Components holds the shipped components, sorted by ID.
	Components []StateComponent
	// Removed lists component ids present at BaseVersion but gone now
	// (delta frames only), sorted.
	Removed []string
}

// ComponentOrigin returns the originating node id of a component id: the
// segment before the first '/', or the whole id.
func ComponentOrigin(id string) string {
	if i := strings.IndexByte(id, '/'); i >= 0 {
		return id[:i]
	}
	return id
}

func validComponentID(id string) error {
	if len(id) == 0 || len(id) > MaxComponentIDLen {
		return fmt.Errorf("wire: component id of %d bytes (want 1..%d)", len(id), MaxComponentIDLen)
	}
	return nil
}

// packer deflates component payloads, reusing its two compressors (about
// a megabyte of tables each) across components and, through packers,
// across frames.
type packer struct {
	zw     [2]*flate.Writer
	out    [2]bytes.Buffer
	kept   []byte // the dense diff's payload while the whole state is packed
	sparse []byte // the sparse diff, which is not packed
}

var packers = sync.Pool{New: func() any { return new(packer) }}

// packLevels are tried in order and the first smallest result wins.
// BestSpeed's matcher finds spurious matches in small-alphabet counter
// bytes, which HuffmanOnly then beats; on wider alphabets the two tie.
var packLevels = [2]int{flate.BestSpeed, flate.HuffmanOnly}

// pack returns the smallest encoding of raw and whether it is deflated;
// raw itself wins unless a deflate is strictly smaller. The result
// aliases raw or the packer and is valid until the next call.
func (p *packer) pack(raw []byte) (payload []byte, deflated bool, err error) {
	payload = raw
	if len(raw) == 0 {
		return payload, false, nil
	}
	for i, level := range packLevels {
		p.out[i].Reset()
		if p.zw[i] == nil {
			if p.zw[i], err = flate.NewWriter(&p.out[i], level); err != nil {
				return nil, false, err
			}
		} else {
			p.zw[i].Reset(&p.out[i])
		}
		if _, err := p.zw[i].Write(raw); err != nil {
			return nil, false, err
		}
		if err := p.zw[i].Close(); err != nil {
			return nil, false, err
		}
		if p.out[i].Len() < len(payload) {
			payload, deflated = p.out[i].Bytes(), true
		}
	}
	return payload, deflated, nil
}

// diffCertain is the share of a state's raw size below which a diff is
// shipped without packing the whole state to compare. Deflating the
// whole state is most of what encoding a diff component costs (a merged
// 2^16-counter state: ~2 ms against ~0.3 ms for everything else), and a
// counter vector that deflates below an eighth of its size — under one
// bit per counter — is all but empty, where either encoding is small.
const diffCertain = 8

// sparseSmall is the value count up to which the sparse diff is tried
// even where most values moved (stateDiff.gapsPay fails): on a Hadamard
// state of a few dozen coefficients, all moved, its Rice-coded values
// can still beat the deflated dense diff (66 bytes against 77 with 70 of
// 75 moved), and building it costs microseconds. Past it, an all-moved
// state is one that deflate codes well and riceParam's passes over
// would take a millisecond.
const sparseSmall = 4096

// component picks how c ships: the encoding byte, the fields a diff
// component carries between its raw length and its payload (nil for a
// whole one), and the payload. The forms are the whole state, its dense
// diff and its sparse diff; the smallest on the wire ships, a diff's
// fields included, and the earlier of two the same size. Two forms are
// settled by the shape of the input alone, because building and packing
// them is most of the work: the dense diff is not tried when the sparse
// one is certain to beat it (stateDiff.clearlySparse), nor the sparse
// one on a large state where most values moved, nor the whole state when
// a diff is under 1/diffCertain of it; where both rules apply nothing is
// deflated at all.
// The payload is valid until the packer's next use.
func (p *packer) component(c StateComponent) (enc byte, diffHead, payload []byte, err error) {
	flateBit := func(deflated bool) byte {
		if deflated {
			return compEncFlate
		}
		return 0
	}
	if c.Base != nil {
		if d, ok := diffState(c.Base.State, c.State); ok {
			head := binary.AppendUvarint(nil, c.Version-c.Base.Version)
			head = binary.LittleEndian.AppendUint32(head, crc32.Checksum(c.State, exchangeCRC))
			// offer takes a form of the diff that is the smallest so far.
			offer := func(form byte, rawLen int, packed []byte) {
				formHead := binary.AppendUvarint(head[:len(head):len(head)], uint64(rawLen))
				if diffHead == nil || len(formHead)+len(packed) < len(diffHead)+len(payload) {
					enc, diffHead, payload = form, formHead, packed
				}
			}
			sparse := d.gapsPay() || d.vals <= sparseSmall
			if !sparse || !d.clearlySparse() {
				packed, deflated, err := p.pack(d.dense())
				if err != nil {
					return 0, nil, nil, err
				}
				// The whole state may yet be packed, in the same buffers.
				p.kept = append(p.kept[:0], packed...)
				offer(compEncDiff|flateBit(deflated), d.denseLen(), p.kept)
			}
			if sparse {
				p.sparse = d.appendSparse(p.sparse[:0])
				offer(compEncDiff|compEncRice, len(p.sparse), p.sparse)
			}
			if len(diffHead)+len(payload) < len(c.State)/diffCertain {
				return enc, diffHead, payload, nil
			}
		}
	}
	whole, deflated, err := p.pack(c.State)
	if err != nil {
		return 0, nil, nil, err
	}
	if diffHead != nil && len(diffHead)+len(payload) < len(whole) {
		return enc, diffHead, payload, nil
	}
	return flateBit(deflated), nil, whole, nil
}

// EncodeComponentFrame serializes one componentized frame, deflating
// each component payload when that shrinks it and shipping a component
// that names a Base as a diff when that is smaller still. Components and
// removed ids must be sorted strictly increasing by id, and a delta's
// base must be below its version.
func EncodeComponentFrame(f ComponentFrame) ([]byte, error) {
	if len(f.NodeID) == 0 || len(f.NodeID) > MaxNodeIDLen {
		return nil, fmt.Errorf("wire: node id of %d bytes (want 1..%d)", len(f.NodeID), MaxNodeIDLen)
	}
	if f.N < 0 {
		return nil, fmt.Errorf("wire: negative report count %d", f.N)
	}
	if !f.Delta && (f.BaseVersion != 0 || len(f.Removed) != 0) {
		return nil, fmt.Errorf("wire: full frame carries delta fields (base version %d, %d removed ids)", f.BaseVersion, len(f.Removed))
	}
	if f.Delta && f.BaseVersion >= f.Version {
		return nil, fmt.Errorf("wire: delta frame base version %d is not below its version %d", f.BaseVersion, f.Version)
	}
	if len(f.Components) > MaxFrameComponents || len(f.Removed) > MaxFrameComponents {
		return nil, fmt.Errorf("wire: frame of %d components / %d removed ids exceeds %d", len(f.Components), len(f.Removed), MaxFrameComponents)
	}
	flags := byte(0)
	if f.Delta {
		flags |= deltaFlagDelta
	}
	buf := make([]byte, 0, 64+len(f.NodeID))
	buf = append(buf, deltaMagic...)
	buf = append(buf, deltaFormatVersion, flags)
	buf = binary.AppendUvarint(buf, uint64(len(f.NodeID)))
	buf = append(buf, f.NodeID...)
	buf = binary.AppendUvarint(buf, f.Version)
	if f.Delta {
		buf = binary.AppendUvarint(buf, f.Version-f.BaseVersion)
	}
	buf = binary.AppendUvarint(buf, uint64(f.N))
	buf = binary.AppendUvarint(buf, uint64(len(f.Components)))
	pk := packers.Get().(*packer)
	defer packers.Put(pk)
	for i, c := range f.Components {
		if err := validComponentID(c.ID); err != nil {
			return nil, err
		}
		if i > 0 && f.Components[i-1].ID >= c.ID {
			return nil, fmt.Errorf("wire: component ids not strictly increasing (%q then %q)", f.Components[i-1].ID, c.ID)
		}
		if c.N < 0 {
			return nil, fmt.Errorf("wire: component %q: negative report count %d", c.ID, c.N)
		}
		enc, diffHead, payload, err := pk.component(c)
		if err != nil {
			return nil, fmt.Errorf("wire: component %q: %w", c.ID, err)
		}
		own := c.ID == f.NodeID && c.Version == f.Version && c.N == f.N &&
			(diffHead == nil || f.Delta && c.Base.Version == f.BaseVersion)
		if own {
			enc |= compEncOwn
			if diffHead != nil {
				diffHead = diffHead[uvarintLen(c.Version-c.Base.Version):]
			}
		}
		buf = append(buf, enc)
		if !own {
			buf = binary.AppendUvarint(buf, uint64(len(c.ID)))
			buf = append(buf, c.ID...)
			buf = binary.AppendUvarint(buf, c.Version)
			buf = binary.AppendUvarint(buf, uint64(c.N))
		}
		buf = binary.AppendUvarint(buf, uint64(len(c.State)))
		buf = append(buf, diffHead...)
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	if f.Delta {
		buf = binary.AppendUvarint(buf, uint64(len(f.Removed)))
		for i, id := range f.Removed {
			if err := validComponentID(id); err != nil {
				return nil, err
			}
			if i > 0 && f.Removed[i-1] >= id {
				return nil, fmt.Errorf("wire: removed ids not strictly increasing (%q then %q)", f.Removed[i-1], id)
			}
			buf = binary.AppendUvarint(buf, uint64(len(id)))
			buf = append(buf, id...)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, exchangeCRC)), nil
}

// componentReader decodes the sequential fields of a frame body with a
// sticky error, mirroring StateDecoder but over a raw byte cursor.
type componentReader struct {
	rest []byte
	err  error
}

func (r *componentReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Uvarint(r.rest)
	if w <= 0 {
		r.err = fmt.Errorf("wire: component frame %s malformed", what)
		return 0
	}
	r.rest = r.rest[w:]
	return v
}

func (r *componentReader) bytes(n uint64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.rest)) {
		r.err = fmt.Errorf("wire: component frame %s of %d bytes overruns %d remaining", what, n, len(r.rest))
		return nil
	}
	b := r.rest[:n]
	r.rest = r.rest[n:]
	return b
}

func (r *componentReader) byteVal(what string) byte {
	b := r.bytes(1, what)
	if r.err != nil {
		return 0
	}
	return b[0]
}

func (r *componentReader) id(what string) string {
	n := r.uvarint(what + " length")
	if r.err == nil && (n == 0 || n > MaxComponentIDLen) {
		r.err = fmt.Errorf("wire: component frame %s of %d bytes (want 1..%d)", what, n, MaxComponentIDLen)
		return ""
	}
	return string(r.bytes(n, what))
}

// inflaters holds decompressors (tens of kilobytes of tables each) for
// unpack to reset and reuse, across components and frames.
var inflaters = sync.Pool{New: func() any { return flate.NewReader(nil) }}

// unpack returns a fresh copy of the n raw bytes a component payload
// holds, inflating it when deflated.
func unpack(payload []byte, deflated bool, n uint64) ([]byte, error) {
	if !deflated {
		if uint64(len(payload)) != n {
			return nil, fmt.Errorf("raw payload of %d bytes declares %d raw", len(payload), n)
		}
		return append([]byte(nil), payload...), nil
	}
	// A deflate at least as large as what it holds is non-canonical: the
	// encoder would have stored it raw.
	if uint64(len(payload)) >= n {
		return nil, fmt.Errorf("flate payload of %d bytes for %d raw is non-canonical", len(payload), n)
	}
	raw := make([]byte, n)
	zr := inflaters.Get().(io.ReadCloser)
	defer inflaters.Put(zr)
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(payload), nil); err != nil {
		return nil, fmt.Errorf("inflating: %w", err)
	}
	if _, err := io.ReadFull(zr, raw); err != nil {
		return nil, fmt.Errorf("inflating: %w", err)
	}
	// The stream must end exactly at the declared raw length.
	if n, err := zr.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		return nil, fmt.Errorf("inflates past declared %d bytes", len(raw))
	}
	return raw, nil
}

// DecodeComponentFrame parses and CRC-verifies one componentized frame
// whose components all arrive whole; a diff component is an error (see
// DecodeComponentFrameWith). maxRaw bounds the total decompressed bytes
// the decoder will materialize, so a hostile frame cannot compress-bomb
// the puller past its configured state budget. Decoded component states
// are fresh allocations (never aliasing buf); ids alias nothing either.
func DecodeComponentFrame(buf []byte, maxRaw int64) (ComponentFrame, error) {
	return DecodeComponentFrameWith(buf, maxRaw, nil)
}

// DecodeComponentFrameWith is DecodeComponentFrame for a puller that
// holds components a diff may be against: base returns what it holds for
// a component id. A diff against any other version of the component, or
// whose result fails the declared length or checksum, fails with an
// error wrapping ErrDiffBase. A frame of another build's format fails
// with an error wrapping ErrFrameFormat.
func DecodeComponentFrameWith(buf []byte, maxRaw int64, base func(id string) (ComponentBase, bool)) (ComponentFrame, error) {
	var f ComponentFrame
	if maxRaw < 0 {
		maxRaw = 0
	}
	if len(buf) < len(deltaMagic)+2+exchangeCRCLen {
		return f, fmt.Errorf("wire: component frame of %d bytes is too short", len(buf))
	}
	body, sum := buf[:len(buf)-exchangeCRCLen], binary.LittleEndian.Uint32(buf[len(buf)-exchangeCRCLen:])
	if got := crc32.Checksum(body, exchangeCRC); got != sum {
		return f, fmt.Errorf("wire: component frame checksum %08x, want %08x", got, sum)
	}
	switch magic := string(body[:len(deltaMagic)]); {
	case magic == exchangeMagic:
		return f, fmt.Errorf("%w: an LDPX single-blob frame", ErrFrameFormat)
	case magic != deltaMagic:
		return f, fmt.Errorf("wire: bad component frame magic %q", magic)
	case body[len(deltaMagic)] != deltaFormatVersion:
		return f, fmt.Errorf("%w: component frame format version %d, want %d", ErrFrameFormat, body[len(deltaMagic)], deltaFormatVersion)
	}
	flags := body[len(deltaMagic)+1]
	if flags&^deltaFlagDelta != 0 {
		return f, fmt.Errorf("wire: component frame flags %02x unknown", flags)
	}
	f.Delta = flags&deltaFlagDelta != 0
	r := &componentReader{rest: body[len(deltaMagic)+2:]}

	idLen := r.uvarint("node-id length")
	if r.err == nil && (idLen == 0 || idLen > MaxNodeIDLen) {
		return f, fmt.Errorf("wire: component frame node-id length %d (want 1..%d)", idLen, MaxNodeIDLen)
	}
	f.NodeID = string(r.bytes(idLen, "node id"))
	f.Version = r.uvarint("version")
	if f.Delta {
		below := r.uvarint("base version")
		if r.err == nil && (below == 0 || below > f.Version) {
			return f, fmt.Errorf("wire: component frame base %d below version %d is out of range (want 1..version)", below, f.Version)
		}
		f.BaseVersion = f.Version - below
	}
	n := r.uvarint("report count")
	if r.err == nil && n > uint64(math.MaxInt) {
		return f, fmt.Errorf("wire: component frame report count %d overflows int", n)
	}
	f.N = int(n)

	count := r.uvarint("component count")
	if r.err == nil && count > MaxFrameComponents {
		return f, fmt.Errorf("wire: component frame of %d components exceeds %d", count, MaxFrameComponents)
	}
	if r.err != nil {
		return f, r.err
	}
	if count > 0 {
		f.Components = make([]StateComponent, 0, min(count, uint64(len(r.rest))))
	}
	budget := uint64(maxRaw)
	for i := uint64(0); i < count && r.err == nil; i++ {
		var (
			c       StateComponent
			ver, cn uint64
		)
		enc := r.byteVal("component encoding")
		own := enc&compEncOwn != 0
		if own {
			c.ID, ver, cn = f.NodeID, f.Version, uint64(f.N)
		} else {
			c.ID = r.id("component id")
			ver = r.uvarint("component version")
			cn = r.uvarint("component report count")
		}
		rawLen := r.uvarint("component raw length")
		isDiff, isSparse := enc&compEncDiff != 0, enc&compEncRice != 0
		var (
			verDelta, diffLen uint64
			sum               []byte
		)
		if isDiff {
			verDelta = f.Version - f.BaseVersion // the own component's base is the frame's
			if !own {
				verDelta = r.uvarint("component base version")
			}
			sum = r.bytes(4, "component state checksum")
			diffLen = r.uvarint("component raw diff length")
		}
		payLen := r.uvarint("component payload length")
		payload := r.bytes(payLen, "component payload")
		if r.err != nil {
			break
		}
		if len(f.Components) > 0 && f.Components[len(f.Components)-1].ID >= c.ID {
			return f, fmt.Errorf("wire: component ids not strictly increasing (%q then %q)", f.Components[len(f.Components)-1].ID, c.ID)
		}
		if cn > uint64(math.MaxInt) {
			return f, fmt.Errorf("wire: component %q report count overflows int", c.ID)
		}
		if enc&^(compEncFlate|compEncDiff|compEncRice|compEncOwn) != 0 || isSparse && enc&^compEncOwn != compEncDiff|compEncRice {
			return f, fmt.Errorf("wire: component %q encoding %d unknown", c.ID, enc)
		}
		// What the encoder would not write: the own component's fields
		// spelled out, or its diff in a frame without a base.
		if own && isDiff && !f.Delta {
			return f, fmt.Errorf("wire: component %q is a diff against the base of a full frame", c.ID)
		}
		if !own && c.ID == f.NodeID && ver == f.Version && cn == uint64(f.N) &&
			(!isDiff || f.Delta && ver-verDelta == f.BaseVersion) {
			return f, fmt.Errorf("wire: component frame spells out component %q, its own", c.ID)
		}
		// Both the state and a diff's own raw form are materialized.
		for _, n := range [2]uint64{rawLen, diffLen} {
			if n > budget {
				return f, fmt.Errorf("wire: component frame raw state exceeds %d byte budget", maxRaw)
			}
			budget -= n
		}
		c.Version, c.N = ver, int(cn)
		unpackLen := rawLen
		if isDiff {
			// A diff no smaller than the state it stands for is
			// non-canonical: the encoder would have shipped the state.
			if payLen >= rawLen {
				return f, fmt.Errorf("wire: component %q diff payload of %d bytes for %d raw is non-canonical", c.ID, payLen, rawLen)
			}
			unpackLen = diffLen
		}
		raw, err := unpack(payload, enc&compEncFlate != 0, unpackLen)
		if err != nil {
			return f, fmt.Errorf("wire: component %q: %w", c.ID, err)
		}
		c.State = raw
		if isDiff {
			var (
				held ComponentBase
				ok   bool
			)
			if base != nil {
				held, ok = base(c.ID)
			}
			if !ok || held.Version != ver-verDelta {
				return f, fmt.Errorf("wire: component %q is a diff against version %d: %w", c.ID, ver-verDelta, ErrDiffBase)
			}
			apply := applyDiff
			if isSparse {
				apply = applySparseDiff
			}
			if c.State, err = apply(held.State, raw, rawLen); err != nil {
				return f, fmt.Errorf("wire: component %q: %w", c.ID, err)
			}
			if crc32.Checksum(c.State, exchangeCRC) != binary.LittleEndian.Uint32(sum) {
				return f, fmt.Errorf("wire: component %q rebuilt state fails its checksum: %w", c.ID, ErrDiffBase)
			}
			held.Sparse = isSparse
			c.Base = &held
		}
		f.Components = append(f.Components, c)
	}
	if f.Delta && r.err == nil {
		rcount := r.uvarint("removed count")
		if r.err == nil && rcount > MaxFrameComponents {
			return f, fmt.Errorf("wire: component frame of %d removed ids exceeds %d", rcount, MaxFrameComponents)
		}
		for i := uint64(0); i < rcount && r.err == nil; i++ {
			id := r.id("removed id")
			if r.err != nil {
				break
			}
			if len(f.Removed) > 0 && f.Removed[len(f.Removed)-1] >= id {
				return f, fmt.Errorf("wire: removed ids not strictly increasing (%q then %q)", f.Removed[len(f.Removed)-1], id)
			}
			f.Removed = append(f.Removed, id)
		}
		// A component both shipped and removed is ambiguous. Both lists
		// are sorted, so one merge scan settles it.
		for i, j := 0, 0; i < len(f.Components) && j < len(f.Removed); {
			switch {
			case f.Components[i].ID == f.Removed[j]:
				return f, fmt.Errorf("wire: component %q both shipped and removed", f.Removed[j])
			case f.Components[i].ID < f.Removed[j]:
				i++
			default:
				j++
			}
		}
	}
	if r.err != nil {
		return f, r.err
	}
	if len(r.rest) != 0 {
		return f, fmt.Errorf("wire: component frame has %d trailing bytes", len(r.rest))
	}
	return f, nil
}

// SortComponents orders components canonically (by id) in place.
func SortComponents(cs []StateComponent) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].ID < cs[j].ID })
}
