package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary frame layout (big endian):
//
//	magic     uint16  0x3D71 ("3DTI")
//	site      uint16
//	index     uint16
//	reserved  uint16
//	seq       uint64
//	captureMs int64
//	payload   uint32 length-prefixed bytes
const (
	frameMagic      = 0x3D71
	frameHeaderSize = 2 + 2 + 2 + 2 + 8 + 8 + 4
)

// MaxPayload bounds the payload length a decoder will accept, protecting
// the data plane from corrupt length prefixes. 16 MiB is far above any
// real frame (~60 KiB at the default profile).
const MaxPayload = 16 << 20

// ErrBadMagic is returned when a decoded frame does not start with the
// frame magic number.
var ErrBadMagic = errors.New("stream: bad frame magic")

// EncodedSize returns the wire size of the frame. A nil frame has size 0.
func EncodedSize(f *Frame) int {
	if f == nil {
		return 0
	}
	return frameHeaderSize + len(f.Payload)
}

// AppendEncode appends the wire form of f to dst and returns the extended
// slice.
func AppendEncode(dst []byte, f *Frame) ([]byte, error) {
	if f == nil {
		return dst, errors.New("stream: nil frame")
	}
	if len(f.Payload) > MaxPayload {
		return dst, fmt.Errorf("stream: payload %d exceeds max %d", len(f.Payload), MaxPayload)
	}
	if f.Stream.Site < 0 || f.Stream.Site > 0xFFFF || f.Stream.Index < 0 || f.Stream.Index > 0xFFFF {
		return dst, fmt.Errorf("stream: id %v out of range for wire format", f.Stream)
	}
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:], frameMagic)
	binary.BigEndian.PutUint16(hdr[2:], uint16(f.Stream.Site))
	binary.BigEndian.PutUint16(hdr[4:], uint16(f.Stream.Index))
	binary.BigEndian.PutUint16(hdr[6:], 0)
	binary.BigEndian.PutUint64(hdr[8:], f.Seq)
	binary.BigEndian.PutUint64(hdr[16:], uint64(f.CaptureMs))
	binary.BigEndian.PutUint32(hdr[24:], uint32(len(f.Payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, f.Payload...)
	return dst, nil
}

// Encode returns the wire form of f.
func Encode(f *Frame) ([]byte, error) {
	return AppendEncode(make([]byte, 0, EncodedSize(f)), f)
}

// Decode parses one frame from b and returns the frame plus the number of
// bytes consumed. io.ErrShortBuffer is returned when b does not yet hold a
// complete frame (callers accumulating from a socket should read more).
//
// The returned payload aliases b — it is a slice of b capped at the
// frame's end, not a copy — so decoding costs no payload copy. A caller
// that reuses or mutates b afterwards must Clone the frame first.
func Decode(b []byte) (*Frame, int, error) {
	if len(b) < frameHeaderSize {
		return nil, 0, io.ErrShortBuffer
	}
	if binary.BigEndian.Uint16(b[0:]) != frameMagic {
		return nil, 0, ErrBadMagic
	}
	plen := binary.BigEndian.Uint32(b[24:])
	if plen > MaxPayload {
		return nil, 0, fmt.Errorf("stream: payload length %d exceeds max %d", plen, MaxPayload)
	}
	total := frameHeaderSize + int(plen)
	if len(b) < total {
		return nil, 0, io.ErrShortBuffer
	}
	f := &Frame{
		Stream:    ID{Site: int(binary.BigEndian.Uint16(b[2:])), Index: int(binary.BigEndian.Uint16(b[4:]))},
		Seq:       binary.BigEndian.Uint64(b[8:]),
		CaptureMs: int64(binary.BigEndian.Uint64(b[16:])),
		Payload:   b[frameHeaderSize:total:total],
	}
	return f, total, nil
}
