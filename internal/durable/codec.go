package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/faults"
)

// FrameHeader is the fixed prefix of a frame: the u32 payload length
// and the u64 CRC-64 of the payload.
const FrameHeader = 12

// The two ways a frame can be torn.
var (
	errTornHeader  = fmt.Errorf("%w: frame header cut short", ErrTorn)
	errTornPayload = fmt.Errorf("%w: frame payload cut short", ErrTorn)
)

// AppendFrame appends the frame of payload to dst. The caller bounds
// len(payload) by its own limit.
func AppendFrame(dst, payload []byte) []byte {
	dst = slices.Grow(dst, FrameHeader+len(payload))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint64(dst, Checksum(payload))
	return append(dst, payload...)
}

// FrameReader reads consecutive frames from a stream. Not safe for
// concurrent use.
type FrameReader struct {
	r   io.Reader
	max uint32
	inj *faults.Injector
	off int64
	hdr [FrameHeader]byte
}

// NewFrameReader reads frames from r whose payloads are at most max
// bytes. inj, when non-nil, fires the faults.FSRead point on each
// payload before its checksum is checked.
func NewFrameReader(r io.Reader, max uint32, inj *faults.Injector) *FrameReader {
	return &FrameReader{r: r, max: max, inj: inj}
}

// Next returns the next frame's payload, freshly allocated. At a clean
// end of the stream it returns io.EOF. Otherwise an error wraps ErrTorn
// when the stream ends inside the frame, ErrLength when the length
// word exceeds the limit, or ErrChecksum when the payload does not
// match its CRC; the frame boundary is intact after ErrChecksum, so a
// caller may skip the frame and read on. Errors of the stream and of
// the FSRead point are returned as they are.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, errTornHeader
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[0:4])
	if n > fr.max {
		return nil, fmt.Errorf("%w: frame length %d, limit %d", ErrLength, n, fr.max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return nil, errTornPayload
		}
		return nil, err
	}
	fr.off += FrameHeader + int64(n)
	payload, err := fr.inj.FireData(faults.FSRead, payload)
	if err != nil {
		return nil, err
	}
	if Checksum(payload) != binary.BigEndian.Uint64(fr.hdr[4:12]) {
		return nil, ErrChecksum
	}
	return payload, nil
}

// Offset returns how many bytes the complete frames read so far span,
// checksum failures included: the end of the last intact frame
// boundary.
func (fr *FrameReader) Offset() int64 { return fr.off }

// AppendBlock appends the block of payload to dst: magic, the u64
// payload length, the payload and its u64 CRC-64.
func AppendBlock(dst []byte, magic string, payload []byte) []byte {
	dst = slices.Grow(dst, len(magic)+16+len(payload))
	dst = append(dst, magic...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint64(dst, Checksum(payload))
}

// ParseBlock checks the block at the start of data and returns its
// payload and the bytes that follow it. The block must start with one
// of magics, which all have the same length, and its payload may be
// at most max bytes. An error wraps ErrTorn when data ends before the
// block does, ErrMagic, ErrLength or ErrChecksum.
func ParseBlock(data []byte, max uint64, magics ...string) (payload, rest []byte, err error) {
	hdr := len(magics[0]) + 8
	if len(data) < hdr+8 {
		return nil, nil, fmt.Errorf("%w: %d bytes, shorter than a block's header and checksum", ErrTorn, len(data))
	}
	if !slices.Contains(magics, string(data[:len(magics[0])])) {
		return nil, nil, ErrMagic
	}
	n := binary.BigEndian.Uint64(data[hdr-8 : hdr])
	if n > max {
		return nil, nil, fmt.Errorf("%w: block length %d, limit %d", ErrLength, n, max)
	}
	if n > uint64(len(data)-hdr-8) {
		return nil, nil, fmt.Errorf("%w: block length %d exceeds the %d bytes left", ErrTorn, n, len(data)-hdr-8)
	}
	end := hdr + int(n)
	payload = data[hdr:end]
	if Checksum(payload) != binary.BigEndian.Uint64(data[end:end+8]) {
		return nil, nil, ErrChecksum
	}
	return payload, data[end+8:], nil
}
