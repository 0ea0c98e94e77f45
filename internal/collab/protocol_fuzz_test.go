package collab

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"lcrs/internal/tensor"
)

// mustFrame encodes t and returns the raw frame, for seeding the fuzzer.
func mustFrame(tt *tensor.Tensor) []byte {
	var buf bytes.Buffer
	if err := WriteTensorCodec(&buf, tt, Raw); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// mustFrameCodec encodes t with a codec and returns the v2 frame.
func mustFrameCodec(tt *tensor.Tensor, c Codec) []byte {
	var buf bytes.Buffer
	if err := WriteTensorCodec(&buf, tt, c); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadTensor feeds arbitrary byte streams to ReadFrame. The decoder
// must never panic, and on valid v1 raw frames it must round-trip
// WriteTensorCodec's raw encoding exactly. Corrupt or truncated frames
// must fail with an error without allocating anywhere near the bytes their
// headers claim (the allocation bound is asserted separately in
// TestReadTensorTruncatedAllocation, since per-input accounting inside the
// fuzz loop would be noisy).
func FuzzReadTensor(f *testing.F) {
	g := tensor.NewRNG(7)
	for _, tt := range []*tensor.Tensor{
		tensor.New(1),
		tensor.Ones(3, 2),
		g.Uniform(-1, 1, 2, 3, 4),
		g.Uniform(-1, 1, 1, 4, 7, 7),
	} {
		f.Add(mustFrame(tt))
	}
	// Corrupt seeds: bad magic, zero rank, huge rank, truncated payload.
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Add([]byte{0x46, 0x54, 0x43, 0x4c, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x46, 0x54, 0x43, 0x4c, 0xff, 0xff, 0xff, 0xff})
	full := mustFrame(g.Uniform(-1, 1, 5, 5))
	f.Add(full[:len(full)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		got, id, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // rejecting garbage is the job; just must not panic
		}
		if got.Len() > maxElems {
			t.Fatalf("accepted frame of %d elements, above the %d limit", got.Len(), maxElems)
		}
		if id != CodecRaw {
			// v2 frames are covered by FuzzReadFrame; the byte-exact
			// re-encode property below only holds for the lossless raw path.
			return
		}
		// Accepted raw frames must re-encode to a prefix-identical frame.
		var out bytes.Buffer
		if err := WriteTensorCodec(&out, got, Raw); err != nil {
			t.Fatalf("round-trip encode of accepted frame failed: %v", err)
		}
		if out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("round-trip mismatch: decoded %v from %d bytes", got.Shape, len(data))
		}
	})
}

// FuzzReadFrame targets the codec-tagged v2 path: truncated scale tables,
// out-of-range codec ids, mismatched element counts and bit-level garbage
// must error (or decode to a bounded tensor), never panic or over-allocate.
func FuzzReadFrame(f *testing.F) {
	g := tensor.NewRNG(11)
	act := g.Uniform(-2, 2, 3, 5, 5)
	batch := g.Uniform(-1, 1, 2, 3, 4, 4)
	for _, c := range Codecs() {
		f.Add(mustFrameCodec(act, c))
		f.Add(mustFrameCodec(batch, c))
	}
	// Out-of-range codec ids: unknown tag, quant tag with bad bit width.
	header := func(codecTag uint32, dims ...uint32) []byte {
		var buf bytes.Buffer
		vals := append([]uint32{frameMagicV2, codecTag, uint32(len(dims))}, dims...)
		for _, v := range vals {
			binary.Write(&buf, binary.LittleEndian, v)
		}
		return buf.Bytes()
	}
	f.Add(header(0xff, 2, 2))          // unknown codec id
	f.Add(header(0x11, 2, 2))          // quant tag with k=1 (unsupported)
	f.Add(header(0x19, 2, 2))          // quant tag with k=9 (unsupported)
	f.Add(header(0x1000000, 2, 2))     // tag beyond one byte
	f.Add(header(uint32(CodecF16), 0)) // zero dimension
	// Truncated scale table: q8 frame for (4,8,8) whose payload carries
	// only two of the four channel scales.
	q8Frame := mustFrameCodec(g.Uniform(-1, 1, 4, 8, 8), Q8)
	f.Add(q8Frame[:12+3*4+2*4])
	// Mismatched element count: full q8 frame with the trailing half of the
	// packed payload cut off.
	f.Add(q8Frame[:len(q8Frame)-100])
	// f16 frame truncated mid-payload.
	f16Frame := mustFrameCodec(act, F16)
	f.Add(f16Frame[:len(f16Frame)-7])

	f.Fuzz(func(t *testing.T, data []byte) {
		got, id, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.Len() > maxElems {
			t.Fatalf("accepted frame of %d elements, above the %d limit", got.Len(), maxElems)
		}
		c, err := CodecByID(id)
		if err != nil {
			t.Fatalf("accepted frame reports unresolvable codec 0x%02x", uint8(id))
		}
		// Whatever decoded must re-encode cleanly under the same codec —
		// the decoder only produces tensors the protocol can carry.
		var out bytes.Buffer
		if err := WriteTensorCodec(&out, got, c); err != nil {
			t.Fatalf("re-encode of accepted %s frame failed: %v", c.Name(), err)
		}
		if int64(out.Len()) != FrameBytesFor(got.Shape, c) {
			t.Fatalf("FrameBytesFor(%v, %s) = %d, encoded %d",
				got.Shape, c.Name(), FrameBytesFor(got.Shape, c), out.Len())
		}
	})
}

// A frame whose header claims the protocol-maximum element count but whose
// payload is truncated must fail fast and must not allocate the claimed
// 256 MB — the decoder grows its buffer only as payload bytes arrive.
func TestReadTensorTruncatedAllocation(t *testing.T) {
	var buf bytes.Buffer
	for _, v := range []uint32{0x4C435446, 2, 64 << 10, 1 << 10} { // magic, rank, 64Ki x 1Ki dims
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	buf.Write(make([]byte, 1024)) // 256 payload floats arrive, then EOF
	assertBoundedDecode(t, buf.Bytes())
}

// The same bound must hold for codec-tagged frames: a q8 header claiming a
// single 64M-element channel with a near-empty payload must not allocate
// the 256 MB output (or a 64 MB packed-group buffer) up front.
func TestReadFrameTruncatedQuantAllocation(t *testing.T) {
	var buf bytes.Buffer
	hdr := []uint32{frameMagicV2, uint32(Q8.ID()), 3, 1, 8 << 10, 8 << 10} // (1, 8Ki, 8Ki)
	for _, v := range hdr {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	buf.Write(make([]byte, 4+1024)) // the one scale plus 1 KB of payload, then EOF
	assertBoundedDecode(t, buf.Bytes())

	// And a rank-2 header promising a 64M-entry scale table with only a few
	// scales delivered must not allocate the 256 MB table.
	buf.Reset()
	for _, v := range []uint32{frameMagicV2, uint32(Q8.ID()), 2, 64 << 20, 1} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	buf.Write(make([]byte, 1024))
	assertBoundedDecode(t, buf.Bytes())
}

// assertBoundedDecode decodes a truncated frame and asserts it errors
// without allocating more than a sliver of the header's claim.
func assertBoundedDecode(t *testing.T, frame []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame must not decode")
	}
	// The claimed payload is 64Mi elements = 256 MB decoded. Allow generous
	// slack for the chunk scratch and unrelated background allocation, but
	// stay orders of magnitude below the claim.
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("truncated frame allocated %d bytes; want well under the 256 MB claim", got)
	}
}
