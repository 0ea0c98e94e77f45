package collab

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"lcrs/internal/tensor"
)

// This file implements the wire codec layer of the offload protocol. The
// conv1 activation tensor dominates every offload request, and on a mobile
// uplink the transfer — not the edge compute — dominates offload latency
// (the paper's Table II/III accounting counts exactly those bytes). Codecs
// shrink the payload behind a common interface:
//
//	raw  float32 little-endian, byte-identical to the v1 protocol (default)
//	f16  IEEE 754 half precision, 2 bytes/element
//	qK   K-bit per-channel symmetric quantization (K in 2..8) with one
//	     float32 scale per channel, the grid of Levels applied to
//	     activations
//
// Raw frames keep the v1 header so old peers interoperate; every other
// codec writes a v2 header that carries a codec tag. The decoder accepts
// both transparently.

// CodecID identifies a payload encoding on the wire. Raw is 0 so that a
// zero value means "the v1 float32 protocol".
type CodecID uint8

const (
	// CodecRaw is little-endian float32, the v1 payload.
	CodecRaw CodecID = 0x00
	// CodecF16 is IEEE 754 binary16.
	CodecF16 CodecID = 0x01
	// codecQuantBase tags k-bit quantized payloads: id = codecQuantBase | k.
	codecQuantBase CodecID = 0x10
)

// MaxBits bounds supported quantization precision; beyond 8 bits the
// float32 values might as well be shipped directly.
const MaxBits = 8

// Levels returns the number of representable magnitudes per side for k
// bits: quantized values lie in {-L..L} with L = 2^(k-1) - 1, plus the
// sign-only special case k=1 (values in {-1, +1}).
func Levels(k int) int {
	if k == 1 {
		return 1
	}
	return 1<<(k-1) - 1
}

// minQuantBits bounds the supported activation precisions from below.
// k=1 is excluded: the symmetric grid {-L..L} with L=2^(k-1)-1 degenerates
// at one bit (internal/binary covers the sign/alpha case for weights).
const minQuantBits = 2

// Codec encodes and decodes the payload section of a tensor frame. The
// frame header (magic, codec tag, rank, dims) is handled by the protocol
// layer; a codec sees only the payload bytes.
type Codec interface {
	// ID is the wire tag of the codec.
	ID() CodecID
	// Name is the stable flag/metadata name ("raw", "f16", "q8", ...).
	Name() string
	// PayloadBytes is the exact encoded payload size for a tensor shape.
	PayloadBytes(shape []int) int64
	// encodePayload writes t's payload to w.
	encodePayload(w io.Writer, t *tensor.Tensor) error
	// decodePayload reads the payload of a tensor with the given
	// (already-validated) shape. Implementations must grow buffers only as
	// payload bytes arrive, never trusting the header's element count.
	decodePayload(r io.Reader, shape []int) (*tensor.Tensor, error)
}

// Raw is the default codec: the v1 float32 payload.
var Raw Codec = rawCodec{}

// F16 is the half-precision codec.
var F16 Codec = f16Codec{}

// Q8 is the 8-bit per-channel symmetric quantization codec.
var Q8 Codec = quantCodec{bits: 8}

// Codecs lists every supported codec, raw first.
func Codecs() []Codec {
	out := []Codec{Raw, F16}
	for k := MaxBits; k >= minQuantBits; k-- {
		out = append(out, quantCodec{bits: k})
	}
	return out
}

// CodecNames lists the flag names of every supported codec, raw first.
func CodecNames() []string {
	var names []string
	for _, c := range Codecs() {
		names = append(names, c.Name())
	}
	return names
}

// CodecByName resolves a flag/metadata name; the empty string means raw.
func CodecByName(name string) (Codec, error) {
	if name == "" {
		return Raw, nil
	}
	for _, c := range Codecs() {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("collab: unknown codec %q (have %v)", name, CodecNames())
}

// CodecByID resolves a wire tag.
func CodecByID(id CodecID) (Codec, error) {
	switch {
	case id == CodecRaw:
		return Raw, nil
	case id == CodecF16:
		return F16, nil
	case id&^0x0f == codecQuantBase:
		k := int(id & 0x0f)
		if k >= minQuantBits && k <= MaxBits {
			return quantCodec{bits: k}, nil
		}
	}
	return nil, fmt.Errorf("collab: unknown codec id 0x%02x", uint8(id))
}

// elemsOf returns the element count of a shape (validated by the header
// reader, so plain multiplication is safe here).
func elemsOf(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// ---------------------------------------------------------------------------
// raw: little-endian float32

type rawCodec struct{}

func (rawCodec) ID() CodecID  { return CodecRaw }
func (rawCodec) Name() string { return "raw" }

func (rawCodec) PayloadBytes(shape []int) int64 { return 4 * int64(elemsOf(shape)) }

func (rawCodec) encodePayload(w io.Writer, t *tensor.Tensor) error {
	buf := getScratch()
	defer putScratch(buf)
	data := t.Data
	for off := 0; off < len(data); off += payloadChunkElems {
		end := off + payloadChunkElems
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		for i, v := range chunk {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
		}
		if _, err := w.Write(buf[:len(chunk)*4]); err != nil {
			return err
		}
	}
	return nil
}

func (rawCodec) decodePayload(r io.Reader, shape []int) (*tensor.Tensor, error) {
	data, err := readFloats(r, elemsOf(shape))
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(data, shape...), nil
}

// ---------------------------------------------------------------------------
// f16: IEEE 754 binary16
//
// Reconstruction bound: round-to-nearest-even gives relative error at most
// 2^-11 (~4.9e-4) for magnitudes inside the half-precision normal range
// [2^-14, 65504]; smaller magnitudes land on the subnormal grid with
// absolute error at most 2^-25, and magnitudes above 65504 overflow to
// infinity (conv1 activations are orders of magnitude below that).

type f16Codec struct{}

func (f16Codec) ID() CodecID  { return CodecF16 }
func (f16Codec) Name() string { return "f16" }

func (f16Codec) PayloadBytes(shape []int) int64 { return 2 * int64(elemsOf(shape)) }

func (f16Codec) encodePayload(w io.Writer, t *tensor.Tensor) error {
	buf := getScratch()
	defer putScratch(buf)
	data := t.Data
	for off := 0; off < len(data); off += payloadChunkElems {
		end := off + payloadChunkElems
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		for i, v := range chunk {
			binary.LittleEndian.PutUint16(buf[i*2:], f16FromF32(v))
		}
		if _, err := w.Write(buf[:len(chunk)*2]); err != nil {
			return err
		}
	}
	return nil
}

func (f16Codec) decodePayload(r io.Reader, shape []int) (*tensor.Tensor, error) {
	n := elemsOf(shape)
	first := n
	if first > payloadChunkElems {
		first = payloadChunkElems
	}
	data := make([]float32, 0, first)
	scratch := make([]byte, first*2)
	for len(data) < n {
		step := n - len(data)
		if step > payloadChunkElems {
			step = payloadChunkElems
		}
		b := scratch[:step*2]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < step; i++ {
			data = append(data, f16ToF32(binary.LittleEndian.Uint16(b[i*2:])))
		}
	}
	return tensor.FromSlice(data, shape...), nil
}

// f16FromF32 converts to half precision with round-to-nearest-even.
func f16FromF32(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp32 := int32(b >> 23 & 0xff)
	mant := b & 0x7fffff
	exp := exp32 - 127 + 15
	switch {
	case exp32 == 0xff: // Inf or NaN
		if mant != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	case exp >= 0x1f: // overflow -> Inf
		return sign | 0x7c00
	case exp <= 0: // subnormal or underflow to zero
		if exp < -10 {
			return sign
		}
		mant |= 0x800000 // implicit leading bit
		shift := uint32(14 - exp)
		half := uint16(mant >> shift)
		rem := mant & (1<<shift - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++
		}
		return sign | half
	default:
		half := uint16(exp)<<10 | uint16(mant>>13)
		rem := mant & 0x1fff
		// A mantissa carry during rounding overflows into the exponent
		// bits, which is exactly the correct rounded result.
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++
		}
		return sign | half
	}
}

// f16ToF32 expands half precision exactly (every binary16 value is
// representable in binary32).
func f16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		// Zero or subnormal: mant * 2^-24, exact in float32.
		f := float32(mant) * float32(5.9604644775390625e-08)
		if sign != 0 {
			f = -f
		}
		return f
	case exp == 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | mant<<13)
	}
}

// ---------------------------------------------------------------------------
// qK: k-bit per-channel symmetric quantization
//
// The tensor is split into channel groups (the leading axes down to the
// last two spatial dims: a CHW sample gets one group per channel, an NCHW
// batch one group per sample x channel). Each group stores one float32
// scale; values quantize to the symmetric grid {-L..L}, L = 2^(k-1)-1,
// with scale = maxAbs/L, and are bit-packed k bits per element (stored as
// the unsigned offset value+L, which fits because 2L < 2^k). Payload
// layout: all scales first (so a truncated scale table is a distinct,
// cleanly-detected failure), then the packed groups, each padded to a byte
// boundary.
//
// Reconstruction bound: per group, |v - v'| <= scale/2 = maxAbs/(2^k - 2).

type quantCodec struct{ bits int }

func (c quantCodec) ID() CodecID  { return codecQuantBase | CodecID(c.bits) }
func (c quantCodec) Name() string { return fmt.Sprintf("q%d", c.bits) }

// quantGroups splits a shape into (groups, groupSize): one group per
// channel for rank >= 3, per row for rank 2, and a single group for rank 1.
func quantGroups(shape []int) (groups, size int) {
	switch {
	case len(shape) >= 3:
		groups = 1
		for _, d := range shape[:len(shape)-2] {
			groups *= d
		}
		return groups, shape[len(shape)-2] * shape[len(shape)-1]
	case len(shape) == 2:
		return shape[0], shape[1]
	default:
		return 1, shape[0]
	}
}

// packedGroupBytes is the byte length of one bit-packed group.
func packedGroupBytes(size, bits int) int { return (size*bits + 7) / 8 }

func (c quantCodec) PayloadBytes(shape []int) int64 {
	groups, size := quantGroups(shape)
	return int64(groups) * int64(4+packedGroupBytes(size, c.bits))
}

func (c quantCodec) encodePayload(w io.Writer, t *tensor.Tensor) error {
	groups, size := quantGroups(t.Shape)
	levels := Levels(c.bits)

	// Scale table first.
	scales := make([]float32, groups)
	for g := 0; g < groups; g++ {
		var mx float32
		for _, v := range t.Data[g*size : (g+1)*size] {
			if a := float32(math.Abs(float64(v))); a > mx {
				mx = a
			}
		}
		scales[g] = mx / float32(levels)
	}
	buf := getScratch()
	defer putScratch(buf)
	for off := 0; off < groups; off += payloadChunkElems {
		end := off + payloadChunkElems
		if end > groups {
			end = groups
		}
		chunk := scales[off:end]
		for i, s := range chunk {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(s))
		}
		if _, err := w.Write(buf[:len(chunk)*4]); err != nil {
			return err
		}
	}

	// Packed groups.
	packed := make([]byte, packedGroupBytes(size, c.bits))
	for g := 0; g < groups; g++ {
		packGroup(packed, t.Data[g*size:(g+1)*size], scales[g], c.bits, levels)
		if _, err := w.Write(packed); err != nil {
			return err
		}
	}
	return nil
}

func (c quantCodec) decodePayload(r io.Reader, shape []int) (*tensor.Tensor, error) {
	groups, size := quantGroups(shape)
	levels := Levels(c.bits)

	scaleBytes, err := readChunked(r, groups*4)
	if err != nil {
		return nil, fmt.Errorf("scale table: %w", err)
	}
	scales := make([]float32, groups)
	for i := range scales {
		scales[i] = math.Float32frombits(binary.LittleEndian.Uint32(scaleBytes[i*4:]))
	}

	// Unpack each group in byte-aligned sub-chunks (subChunkElems is a
	// multiple of 8, so every non-final step lands on a byte boundary of
	// the packed stream), growing the output only as payload arrives.
	const subChunkElems = payloadChunkElems // multiple of 8
	data := make([]float32, 0, firstAlloc(groups*size))
	packed := make([]byte, packedGroupBytes(subChunkElems, c.bits))
	for g := 0; g < groups; g++ {
		for remaining := size; remaining > 0; {
			step := remaining
			if step > subChunkElems {
				step = subChunkElems
			}
			nb := packedGroupBytes(step, c.bits)
			if _, err := io.ReadFull(r, packed[:nb]); err != nil {
				return nil, err
			}
			data = unpackGroup(data, packed[:nb], scales[g], step, c.bits, levels)
			remaining -= step
		}
	}
	return tensor.FromSlice(data, shape...), nil
}

// packGroup bit-packs one channel group, least-significant bits first.
func packGroup(dst []byte, src []float32, scale float32, bits, levels int) {
	var acc uint32
	var n uint
	pos := 0
	inv := float64(0)
	if scale > 0 {
		inv = 1 / float64(scale)
	}
	for _, v := range src {
		q := 0
		if inv != 0 {
			q = int(math.Round(float64(v) * inv))
			if q > levels {
				q = levels
			}
			if q < -levels {
				q = -levels
			}
		}
		acc |= uint32(q+levels) << n
		n += uint(bits)
		for n >= 8 {
			dst[pos] = byte(acc)
			acc >>= 8
			n -= 8
			pos++
		}
	}
	if n > 0 {
		dst[pos] = byte(acc)
		pos++
	}
	for ; pos < len(dst); pos++ {
		dst[pos] = 0
	}
}

// unpackGroup appends size reconstructed values to data. Stored values one
// past the top grid level (the unused 2^k-1 pattern) clamp to the top
// level, so hostile frames reconstruct to bounded garbage, never a panic.
func unpackGroup(data []float32, src []byte, scale float32, size, bits, levels int) []float32 {
	var acc uint32
	var n uint
	pos := 0
	mask := uint32(1<<bits - 1)
	for i := 0; i < size; i++ {
		for n < uint(bits) {
			acc |= uint32(src[pos]) << n
			pos++
			n += 8
		}
		q := int(acc&mask) - levels
		acc >>= uint(bits)
		n -= uint(bits)
		if q > levels {
			q = levels
		}
		data = append(data, float32(q)*scale)
	}
	return data
}

// MaxQuantError returns the documented worst-case reconstruction error of
// the k-bit codec for a channel group whose max magnitude is maxAbs.
func MaxQuantError(maxAbs float64, bits int) float64 {
	return maxAbs / float64(int(2)<<(bits-1)-2)
}
