// Package encoding provides the compact binary wire format for protocol
// reports, so the communication costs accounted analytically in Table 2
// correspond to real bytes on the wire. The format is
// protocol-parameterized: each protocol serializes only the fields it
// uses, with variable-length integers for indices whose ranges the
// deployment configuration bounds.
//
// Frame layout (little endian):
//
//	byte 0:    protocol tag
//	remainder: protocol-specific payload (see Marshal)
package encoding

import (
	"encoding/binary"
	"fmt"

	"ldpmarginals/internal/core"
)

// Tag identifies the protocol of an encoded report on the wire.
type Tag byte

// Wire tags of the served protocols. These are part of the persisted
// format: do not renumber.
const (
	TagInpPS  Tag = 2
	TagInpHT  Tag = 3
	TagMargRR Tag = 4
	TagMargPS Tag = 5
	TagMargHT Tag = 6
	TagHCMS   Tag = 9
)

// retiredTags were the tags of InpRR and the InpEM and InpOLH baselines
// before the server stopped serving them; WAL segments and peer
// snapshots of such a node still carry them. Do not reuse them.
var retiredTags = map[Tag]string{1: "InpRR", 7: "InpEM", 8: "InpOLH"}

// protocolTags is the single source of the name <-> tag mapping; the
// reverse direction is derived from it below, so a new protocol is
// registered in exactly one place.
var protocolTags = map[string]Tag{
	"InpPS":    TagInpPS,
	"InpHT":    TagInpHT,
	"MargRR":   TagMargRR,
	"MargPS":   TagMargPS,
	"MargHT":   TagMargHT,
	"InpHTCMS": TagHCMS,
}

var tagProtocols = func() map[Tag]string {
	m := make(map[Tag]string, len(protocolTags))
	for name, tag := range protocolTags {
		m[tag] = name
	}
	return m
}()

// TagForProtocol maps a served protocol's name to its wire tag, and
// refuses a retired one by name.
func TagForProtocol(name string) (Tag, error) {
	if tag, ok := protocolTags[name]; ok {
		return tag, nil
	}
	for tag, retired := range retiredTags {
		if retired == name {
			return 0, fmt.Errorf("encoding: %s is not served; run it with ldpmarg or cmd/experiments", TagName(tag))
		}
	}
	return 0, fmt.Errorf("encoding: unknown protocol %q", name)
}

// TagName names a tag for a refusal: "InpHT (tag 3)", a retired tag's
// protocol the same way, or "tag 12".
func TagName(tag Tag) string {
	name, ok := tagProtocols[tag]
	if !ok {
		name, ok = retiredTags[tag]
	}
	if !ok {
		return fmt.Sprintf("tag %d", tag)
	}
	return fmt.Sprintf("%s (tag %d)", name, tag)
}

// signByte encodes a +-1 sign into one byte.
func signByte(s int8) (byte, error) {
	switch s {
	case 1:
		return 1, nil
	case -1:
		return 0, nil
	default:
		return 0, fmt.Errorf("encoding: sign %d is not +-1", s)
	}
}

func byteSign(b byte) (int8, error) {
	switch b {
	case 1:
		return 1, nil
	case 0:
		return -1, nil
	default:
		return 0, fmt.Errorf("encoding: malformed sign byte %d", b)
	}
}

// Marshal serializes a report produced by the named protocol.
func Marshal(name string, rep core.Report) ([]byte, error) {
	tag, err := TagForProtocol(name)
	if err != nil {
		return nil, err
	}
	buf := []byte{byte(tag)}
	putUvarint := func(v uint64) {
		buf = binary.AppendUvarint(buf, v)
	}
	switch tag {
	case TagInpPS:
		putUvarint(rep.Index)
	case TagInpHT:
		putUvarint(rep.Index)
		sb, err := signByte(rep.Sign)
		if err != nil {
			return nil, err
		}
		buf = append(buf, sb)
	case TagMargRR:
		// Bitmap payload: beta, word count, then words.
		putUvarint(rep.Beta)
		putUvarint(uint64(len(rep.Bits)))
		for _, w := range rep.Bits {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	case TagMargPS:
		putUvarint(rep.Beta)
		putUvarint(rep.Index)
	case TagMargHT, TagHCMS:
		putUvarint(rep.Beta)
		putUvarint(rep.Index)
		sb, err := signByte(rep.Sign)
		if err != nil {
			return nil, err
		}
		buf = append(buf, sb)
	}
	return buf, nil
}

// Unmarshal parses a frame produced by Marshal, returning the protocol
// tag and the decoded report.
func Unmarshal(frame []byte) (Tag, core.Report, error) {
	if len(frame) == 0 {
		return 0, core.Report{}, fmt.Errorf("encoding: empty frame")
	}
	tag := Tag(frame[0])
	rest := frame[1:]
	var rep core.Report
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("encoding: truncated varint")
		}
		rest = rest[n:]
		return v, nil
	}
	readWords := func() ([]uint64, error) {
		count, err := readUvarint()
		if err != nil {
			return nil, err
		}
		const maxWords = MaxFrameBytes / 8 // no larger bitmap fits a frame
		if count > maxWords {
			return nil, fmt.Errorf("encoding: bitmap of %d words exceeds limit", count)
		}
		if uint64(len(rest)) < count*8 {
			return nil, fmt.Errorf("encoding: truncated bitmap")
		}
		words := make([]uint64, count)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(rest[i*8:])
		}
		rest = rest[count*8:]
		return words, nil
	}
	readSign := func() (int8, error) {
		if len(rest) < 1 {
			return 0, fmt.Errorf("encoding: missing sign byte")
		}
		b := rest[0]
		rest = rest[1:]
		return byteSign(b)
	}
	var err error
	switch tag {
	case TagInpPS:
		rep.Index, err = readUvarint()
	case TagInpHT:
		if rep.Index, err = readUvarint(); err == nil {
			rep.Sign, err = readSign()
		}
	case TagMargRR:
		if rep.Beta, err = readUvarint(); err == nil {
			rep.Bits, err = readWords()
		}
	case TagMargPS:
		if rep.Beta, err = readUvarint(); err == nil {
			rep.Index, err = readUvarint()
		}
	case TagMargHT, TagHCMS:
		if rep.Beta, err = readUvarint(); err == nil {
			if rep.Index, err = readUvarint(); err == nil {
				rep.Sign, err = readSign()
			}
		}
	default:
		if _, retired := retiredTags[tag]; retired {
			return 0, core.Report{}, fmt.Errorf("encoding: %s is not served", TagName(tag))
		}
		return 0, core.Report{}, fmt.Errorf("encoding: unknown tag %d", tag)
	}
	if err != nil {
		return 0, core.Report{}, err
	}
	if len(rest) != 0 {
		return 0, core.Report{}, fmt.Errorf("encoding: %d trailing bytes", len(rest))
	}
	return tag, rep, nil
}
