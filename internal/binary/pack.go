package binary

import (
	"fmt"
	"math"
	"math/bits"
)

// wordsFor returns the number of 64-bit words needed to hold n sign bits.
func wordsFor(n int) int { return (n + 63) / 64 }

// signBit is 1 when v >= 0 and 0 otherwise — sign(0) = +1, the XNOR-Net
// convention, and a NaN, which compares false, packs as -1 — computed from
// v's bits without a branch: v >= 0 holds exactly for the patterns from +0
// up to +Inf and for -0.
func signBit(v float32) uint64 {
	u := uint64(math.Float32bits(v))
	nonNeg := (u - 0x7f800001) >> 63        // +0 <= v <= +Inf
	negZero := ((u ^ 0x80000000) - 1) >> 63 // v is -0
	return nonNeg | negZero
}

// packWord returns the sign bits of up to 64 values, value i at bit i.
func packWord(src []float32) uint64 {
	var w uint64
	for i, v := range src {
		w |= signBit(v) << (uint(i) & 63)
	}
	return w
}

// PackSigns packs the sign bits of src into dst, one bit per element with
// bit=1 meaning the value is non-negative (sign(0)=+1). Bits beyond len(src) in the last word are left zero, so two
// vectors packed with the same length always agree on their padding bits
// and XnorDot needs no tail masking.
func PackSigns(dst []uint64, src []float32) {
	if len(dst) != wordsFor(len(src)) {
		panic(fmt.Sprintf("binary: PackSigns dst has %d words, want %d", len(dst), wordsFor(len(src))))
	}
	for i := range dst {
		dst[i] = packWord(src[i*64 : min(len(src), i*64+64)])
	}
}

// XnorDot computes the dot product of two {-1,+1} vectors of length n from
// their packed sign bits: dot = n - 2*popcount(a XOR b). Both slices must
// have been produced by PackSigns with the same n (identical zero padding).
func XnorDot(a, b []uint64, n int) int32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("binary: XnorDot word count mismatch %d vs %d", len(a), len(b)))
	}
	var diff int
	for i := range a {
		diff += bits.OnesCount64(a[i] ^ b[i])
	}
	return int32(n - 2*diff)
}

// PackedMatrix is a row-major matrix of packed sign bits: Rows rows of N
// bits each, each row occupying WordsPerRow words.
type PackedMatrix struct {
	Rows        int
	N           int // logical bits per row
	WordsPerRow int
	Words       []uint64
}

// NewPackedMatrix allocates a packed matrix of the given dimensions.
func NewPackedMatrix(rows, n int) *PackedMatrix {
	w := wordsFor(n)
	return &PackedMatrix{Rows: rows, N: n, WordsPerRow: w, Words: make([]uint64, rows*w)}
}

// Row returns the packed words of row i.
func (m *PackedMatrix) Row(i int) []uint64 {
	return m.Words[i*m.WordsPerRow : (i+1)*m.WordsPerRow]
}

// PackRow packs the sign bits of src into row i.
func (m *PackedMatrix) PackRow(i int, src []float32) {
	if len(src) != m.N {
		panic(fmt.Sprintf("binary: PackRow got %d values, want %d", len(src), m.N))
	}
	PackSigns(m.Row(i), src)
}

// SizeBytes returns the storage footprint of the packed bits, the number
// the paper's model-size comparison counts for binary layers.
func (m *PackedMatrix) SizeBytes() int64 {
	// One bit per logical element; padding inside the final word of each
	// row is an artifact of the in-memory layout, and the serialized form
	// (modelio) stores rows bit-contiguously, so account N bits per row.
	return (int64(m.Rows)*int64(m.N) + 7) / 8
}
