// Package collab is the wire contract between the web client and the edge
// server, and nothing else: the tensor frames and their versions
// (protocol.go), the offload codecs (codec.go), the content keys both
// caches agree on (key.go), the request-ID, model-version and trace
// headers (requestid.go, tracing.go) and the JSON bodies the edge answers
// with (body.go). Both ends import it, and it imports only tensor and quantize,
// so the client links no server code. The in-process simulation of the
// paper's Algorithm 2 lives in internal/edgesim.
package collab

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"lcrs/internal/tensor"
)

// Wire protocol between the web client and the edge server. Tensors travel
// as little-endian frames; the intermediate activation dominates the
// payload and its size is exactly what the paper's communication-cost
// tables count.
//
// Three frame versions coexist:
//
//	v1  magic, rank, dims, float32 payload — the original protocol, still
//	    written for the raw codec so old peers keep interoperating.
//	v2  magic2, codec tag, rank, dims, codec payload — written for every
//	    non-raw codec (see codec.go).
//	v3  magic3, codec tag, decision-telemetry block, rank, dims, codec
//	    payload — written when the client attaches its binary-branch exit
//	    decision (see Telemetry), so the edge can track live entropy,
//	    exit-rate and binary-vs-main agreement without re-running anything.
//
// The reader accepts all three transparently, reports which codec carried
// the payload, and surfaces the telemetry block when one was present.

const (
	frameMagic   = uint32(0x4C435446) // "LCTF", v1
	frameMagicV2 = uint32(0x4C435632) // "LCV2", codec-tagged
	frameMagicV3 = uint32(0x4C435633) // "LCV3", codec-tagged + telemetry
	frameMagicV4 = uint32(0x4C435634) // "LCV4", v3 + cache-hit count
	maxRank      = 8
	maxElems     = 64 << 20 // 256 MB of float32 — far above any real tensor
)

// payloadChunkElems is the unit in which encoders and decoders move
// payload data: 64 KiB of float32 per step, so a frame whose header claims
// the maximum element count but whose body is truncated allocates only in
// proportion to the bytes that actually arrived.
const payloadChunkElems = 16 << 10

// scratchPool recycles the per-call encode buffer, so steady-state frame
// encoding allocates nothing for the payload.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, payloadChunkElems*4)
		return &b
	},
}

func getScratch() []byte  { return *scratchPool.Get().(*[]byte) }
func putScratch(b []byte) { scratchPool.Put(&b) }

// Telemetry is the client-side decision record a v3 frame carries next to
// the offloaded activation: the binary branch's normalized entropy for the
// frame's first sample (Eq. 7), the exit threshold the client screened
// offline, the branch's top-1 prediction for that sample, and the number of
// local early exits the client performed since its previous offload
// (piggybacked so the edge can track a live exit rate without any extra
// requests). The block is version-gated behind the v3 magic: v1/v2 frames
// from older clients decode exactly as before and report a nil Telemetry.
type Telemetry struct {
	// Entropy is the normalized binary-branch entropy of the frame's first
	// sample, in [0,1].
	Entropy float64
	// Tau is the client's exit threshold, in [0,1]; the edge derives the
	// tau margin (Entropy - Tau) from it.
	Tau float64
	// BinaryPred is the binary branch's top-1 class for the first sample —
	// compared against the main branch's answer for the live agreement
	// counters.
	BinaryPred int
	// LocalExits is the number of samples the client answered locally
	// since its previous offload (flushed with this frame).
	LocalExits int
	// CacheHits is the number of samples the client answered from its
	// session recognition cache since its previous offload (flushed with
	// this frame, like LocalExits). A zero count keeps the frame at v3 so
	// cache-less clients stay byte-identical to the PR 5 protocol; a
	// positive count upgrades the frame to v4, which carries one extra
	// telemetry word.
	CacheHits int
}

// telemetryWords is the fixed v3 telemetry block size in uint32 words:
// entropy bits, tau bits, binary pred, local exits. A v4 frame appends a
// fifth word for the cache-hit count.
const (
	telemetryWords   = 4
	telemetryWordsV4 = 5
)

// TelemetryWireBytes is the encoded v3 telemetry block size — what a v3
// frame adds over a v2 frame of the same tensor, for cost accounting. A
// v4 frame (CacheHits > 0) carries 4 more bytes.
const TelemetryWireBytes = 4 * telemetryWords

// validTelemetry bounds the fields a hostile or buggy peer could abuse:
// entropies and thresholds must be finite and inside [0,1] (a hair of
// float32 slack is clamped by the caller), predictions must fit an int32
// class index, and one frame cannot claim an absurd local-exit backlog.
func validTelemetry(entropy, tau float64, pred, exits, hits int) error {
	if math.IsNaN(entropy) || entropy < 0 || entropy > 1 {
		return fmt.Errorf("collab: telemetry entropy %v out of [0,1]", entropy)
	}
	if math.IsNaN(tau) || tau < 0 || tau > 1 {
		return fmt.Errorf("collab: telemetry tau %v out of [0,1]", tau)
	}
	if pred < 0 || pred > math.MaxInt32 {
		return fmt.Errorf("collab: telemetry binary pred %d out of range", pred)
	}
	if exits < 0 || exits > MaxLocalExits {
		return fmt.Errorf("collab: telemetry local exits %d out of range", exits)
	}
	if hits < 0 || hits > MaxCacheHits {
		return fmt.Errorf("collab: telemetry cache hits %d out of range", hits)
	}
	return nil
}

// MaxLocalExits caps the exit backlog one frame may flush, so a single
// hostile frame cannot inflate the edge's exit counters without bound.
const MaxLocalExits = 1 << 20

// MaxCacheHits caps the session-cache hit backlog one v4 frame may flush,
// the same bound (and for the same reason) as MaxLocalExits.
const MaxCacheHits = 1 << 20

// unitSlack is the round-off tolerance above 1 the writer folds back into
// the unit interval: normalized entropy is computed as h/log|C| and can
// land a few ULPs high, which is not a protocol violation.
const unitSlack = 1e-6

// foldUnit clamps v into [0,1] when it is within round-off of the
// interval, and reports false for genuinely out-of-range values.
func foldUnit(v float64) (float64, bool) {
	if math.IsNaN(v) || v < 0 || v > 1+unitSlack {
		return v, false
	}
	if v > 1 {
		return 1, true
	}
	return v, true
}

// WriteTensor encodes t as a v1 raw frame on w — byte-identical to the
// original protocol (the golden-frame test pins this).
func WriteTensor(w io.Writer, t *tensor.Tensor) error {
	return WriteTensorCodec(w, t, Raw)
}

// WriteTensorCodec encodes t on w with the given codec. The raw codec (or
// nil) writes a v1 frame; every other codec writes a codec-tagged v2 frame.
func WriteTensorCodec(w io.Writer, t *tensor.Tensor, c Codec) error {
	return WriteTensorTelemetry(w, t, c, nil)
}

// WriteTensorTelemetry encodes t on w with the given codec and, when tel is
// non-nil, a decision-telemetry block: a v3 frame normally, upgraded to v4
// only when tel.CacheHits is positive, so cache-less traffic stays
// byte-identical to the PR 5 protocol. A nil tel preserves the exact v1/v2
// bytes older peers expect.
func WriteTensorTelemetry(w io.Writer, t *tensor.Tensor, c Codec, tel *Telemetry) error {
	if c == nil {
		c = Raw
	}
	if len(t.Shape) > maxRank {
		return fmt.Errorf("collab: tensor rank %d exceeds protocol max %d", len(t.Shape), maxRank)
	}
	var entropy, tau float64
	if tel != nil {
		var okE, okT bool
		entropy, okE = foldUnit(tel.Entropy)
		tau, okT = foldUnit(tel.Tau)
		if !okE || !okT {
			return fmt.Errorf("collab: telemetry entropy %v / tau %v out of [0,1]", tel.Entropy, tel.Tau)
		}
		if err := validTelemetry(entropy, tau, tel.BinaryPred, tel.LocalExits, tel.CacheHits); err != nil {
			return err
		}
	}
	var hdr [16 + 4*telemetryWordsV4 + 4*maxRank]byte
	n := 0
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(hdr[n:], v)
		n += 4
	}
	switch {
	case tel != nil:
		if tel.CacheHits > 0 {
			put(frameMagicV4)
		} else {
			put(frameMagicV3)
		}
		put(uint32(c.ID()))
		put(math.Float32bits(float32(entropy)))
		put(math.Float32bits(float32(tau)))
		put(uint32(tel.BinaryPred))
		put(uint32(tel.LocalExits))
		if tel.CacheHits > 0 {
			put(uint32(tel.CacheHits))
		}
	case c.ID() == CodecRaw:
		put(frameMagic)
	default:
		put(frameMagicV2)
		put(uint32(c.ID()))
	}
	put(uint32(len(t.Shape)))
	for _, d := range t.Shape {
		if d <= 0 || d > math.MaxInt32 {
			return fmt.Errorf("collab: dimension %d not encodable", d)
		}
		put(uint32(d))
	}
	if _, err := w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("collab: write frame header: %w", err)
	}
	if err := c.encodePayload(w, t); err != nil {
		return fmt.Errorf("collab: write frame payload: %w", err)
	}
	return nil
}

// ReadTensor decodes one frame (v1, v2 or v3, any codec) from r.
func ReadTensor(r io.Reader) (*tensor.Tensor, error) {
	t, _, err := ReadFrame(r)
	return t, err
}

// ReadFrame decodes one frame from r and reports the codec that carried
// it, discarding any telemetry block (ReadFrameTelemetry surfaces it).
func ReadFrame(r io.Reader) (*tensor.Tensor, CodecID, error) {
	t, id, _, err := ReadFrameTelemetry(r)
	return t, id, err
}

// ReadFrameTelemetry decodes one frame from r, reporting the codec that
// carried it and the decision-telemetry block when the frame was v3 or v4
// (nil for v1/v2 frames from older clients). It rejects malformed and
// implausibly large frames, and grows buffers only as payload bytes
// actually arrive, so a broken or malicious peer cannot trigger huge
// allocations with a header that promises more data than it sends.
func ReadFrameTelemetry(r io.Reader) (*tensor.Tensor, CodecID, *Telemetry, error) {
	t, id, tel, _, err := readFrameTelemetry(r, false)
	return t, id, tel, err
}

// readFrameTelemetry is the shared frame decoder. With keyed set, the
// payload bytes (as received, before any dequantization) are folded into a
// canonical content key alongside the decode (see key.go).
func readFrameTelemetry(r io.Reader, keyed bool) (*tensor.Tensor, CodecID, *Telemetry, Key, error) {
	var u32 [4]byte
	readU32 := func(what string) (uint32, error) {
		if _, err := io.ReadFull(r, u32[:]); err != nil {
			return 0, fmt.Errorf("collab: read frame %s: %w", what, err)
		}
		return binary.LittleEndian.Uint32(u32[:]), nil
	}
	readCodec := func() (Codec, error) {
		tag, err := readU32("codec")
		if err != nil {
			return nil, err
		}
		if tag > 0xff {
			return nil, fmt.Errorf("collab: codec tag 0x%08x out of range", tag)
		}
		return CodecByID(CodecID(tag))
	}

	magic, err := readU32("magic")
	if err != nil {
		return nil, 0, nil, Key{}, err
	}
	codec := Raw
	var tel *Telemetry
	switch magic {
	case frameMagic:
	case frameMagicV2:
		if codec, err = readCodec(); err != nil {
			return nil, 0, nil, Key{}, err
		}
	case frameMagicV3, frameMagicV4:
		if codec, err = readCodec(); err != nil {
			return nil, 0, nil, Key{}, err
		}
		words := make([]uint32, telemetryWords, telemetryWordsV4)
		names := []string{
			"telemetry entropy", "telemetry tau", "telemetry pred", "telemetry exits",
		}
		if magic == frameMagicV4 {
			words = words[:telemetryWordsV4]
			names = append(names, "telemetry cache hits")
		}
		for i, what := range names {
			if words[i], err = readU32(what); err != nil {
				return nil, 0, nil, Key{}, err
			}
		}
		tel = &Telemetry{
			Entropy:    float64(math.Float32frombits(words[0])),
			Tau:        float64(math.Float32frombits(words[1])),
			BinaryPred: int(words[2]),
			LocalExits: int(words[3]),
		}
		if magic == frameMagicV4 {
			tel.CacheHits = int(words[4])
		}
		if err := validTelemetry(tel.Entropy, tel.Tau, tel.BinaryPred, tel.LocalExits, tel.CacheHits); err != nil {
			return nil, 0, nil, Key{}, err
		}
	default:
		return nil, 0, nil, Key{}, fmt.Errorf("collab: bad frame magic 0x%08x", magic)
	}

	rank, err := readU32("rank")
	if err != nil {
		return nil, 0, nil, Key{}, err
	}
	if rank == 0 || rank > maxRank {
		return nil, 0, nil, Key{}, fmt.Errorf("collab: frame rank %d out of range", rank)
	}
	shape := make([]int, rank)
	elems := 1
	for i := range shape {
		d, err := readU32("dims")
		if err != nil {
			return nil, 0, nil, Key{}, err
		}
		if d == 0 {
			return nil, 0, nil, Key{}, fmt.Errorf("collab: zero dimension in frame")
		}
		shape[i] = int(d)
		elems *= int(d)
		if elems > maxElems {
			return nil, 0, nil, Key{}, fmt.Errorf("collab: frame of %d elements exceeds limit", elems)
		}
	}
	payload := r
	var hasher keyHasher
	if keyed {
		// Tee the payload bytes as received into the hasher: the key covers
		// codec ID + wire payload, exactly what the sender's TensorKey
		// hashed, so the two ends agree without a second encode.
		hasher = newKeyHasher(codec.ID())
		payload = io.TeeReader(r, &hasher)
	}
	t, err := codec.decodePayload(payload, shape)
	if err != nil {
		return nil, 0, nil, Key{}, fmt.Errorf("collab: read frame payload (%s): %w", codec.Name(), err)
	}
	return t, codec.ID(), tel, hasher.key(), nil
}

// firstAlloc caps an initial buffer capacity at one payload chunk, the
// "grow as bytes arrive" policy of the decoders.
func firstAlloc(n int) int {
	if n > payloadChunkElems {
		return payloadChunkElems
	}
	return n
}

// readFloats reads exactly n little-endian float32 values from r with
// direct math.Float32frombits conversion (no reflection). The destination
// grows chunk by chunk as data arrives instead of being allocated up front
// from the (untrusted) header.
func readFloats(r io.Reader, n int) ([]float32, error) {
	first := firstAlloc(n)
	data := make([]float32, 0, first)
	scratch := make([]byte, first*4)
	for len(data) < n {
		step := n - len(data)
		if step > payloadChunkElems {
			step = payloadChunkElems
		}
		b := scratch[:step*4]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < step; i++ {
			data = append(data, math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:])))
		}
	}
	return data, nil
}

// readChunked reads exactly n bytes from r, growing the destination only
// as bytes arrive (64 KiB steps), so a truncated frame allocates in
// proportion to the bytes actually received, not the header's claim.
func readChunked(r io.Reader, n int) ([]byte, error) {
	const chunk = 64 << 10
	first := n
	if first > chunk {
		first = chunk
	}
	buf := make([]byte, 0, first)
	scratch := make([]byte, first)
	for len(buf) < n {
		step := n - len(buf)
		if step > chunk {
			step = chunk
		}
		if _, err := io.ReadFull(r, scratch[:step]); err != nil {
			return nil, err
		}
		buf = append(buf, scratch[:step]...)
	}
	return buf, nil
}

// FrameBytes returns the encoded size of a v1 raw tensor frame without
// encoding it, for cost accounting.
func FrameBytes(t *tensor.Tensor) int64 {
	return FrameBytesFor(t.Shape, Raw)
}

// FrameBytesFor returns the full encoded frame size (header + payload) of
// a tensor shape under codec c, for cost accounting. A nil codec means raw.
// A v3 telemetry frame adds TelemetryWireBytes (plus 4 bytes of codec tag
// when c is raw) on top of this.
func FrameBytesFor(shape []int, c Codec) int64 {
	if c == nil {
		c = Raw
	}
	header := int64(8 + 4*len(shape)) // v1: magic, rank, dims
	if c.ID() != CodecRaw {
		header += 4 // v2 codec tag
	}
	return header + c.PayloadBytes(shape)
}
