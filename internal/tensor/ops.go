package tensor

import (
	"fmt"
	"math"
)

// AddInto computes dst = a + b element-wise. All three must have the same
// element count; dst may alias a or b.
func AddInto(dst, a, b *Tensor) {
	checkSameLen("AddInto", dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// SubInto computes dst = a - b element-wise.
func SubInto(dst, a, b *Tensor) {
	checkSameLen("SubInto", dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// MulInto computes dst = a * b element-wise (Hadamard product).
func MulInto(dst, a, b *Tensor) {
	checkSameLen("MulInto", dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// Add returns a new tensor a + b.
func Add(a, b *Tensor) *Tensor {
	out := New(a.Shape...)
	AddInto(out, a, b)
	return out
}

// Sub returns a new tensor a - b.
func Sub(a, b *Tensor) *Tensor {
	out := New(a.Shape...)
	SubInto(out, a, b)
	return out
}

// Mul returns a new tensor a * b (element-wise).
func Mul(a, b *Tensor) *Tensor {
	out := New(a.Shape...)
	MulInto(out, a, b)
	return out
}

// Scale multiplies every element of t by s in place and returns t.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// AddScaled computes t += s*o element-wise in place (axpy).
func (t *Tensor) AddScaled(s float32, o *Tensor) {
	checkSameLen("AddScaled", t, o)
	for i := range t.Data {
		t.Data[i] += float32(s * o.Data[i])
	}
}

// Sign writes sign(src) into dst using the convention sign(0) = +1, the
// binarization used by XNOR-Net style networks.
func Sign(dst, src *Tensor) {
	checkSameLen("Sign", dst, src)
	for i, v := range src.Data {
		if v < 0 {
			dst.Data[i] = -1
		} else {
			dst.Data[i] = 1
		}
	}
}

func checkSameLen(op string, ts ...*Tensor) {
	n := len(ts[0].Data)
	for _, t := range ts[1:] {
		if len(t.Data) != n {
			panic(fmt.Sprintf("tensor: %s size mismatch %d vs %d", op, n, len(t.Data)))
		}
	}
}

// MatMul computes C = A x B for rank-2 tensors A (m x k) and B (k x n),
// returning a new m x n tensor. The kernel is blocked over the inner
// dimension and accumulates along contiguous rows of B for cache locality.
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %d vs %d", k, k2))
	}
	c := New(m, n)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes dst = a x b where dst is a preallocated m x n tensor.
// dst must not alias a or b.
//
// Problems large enough that B no longer fits low cache levels dispatch to
// the cache-blocked kernel (gemm.go); small problems keep the 4-wide
// unrolled kernel, whose pack-free start-up is faster and whose results
// are bit-for-bit what this function has always produced. Both kernels are
// deterministic for any worker count; they differ from each other only by
// float addition order (TestMatMulIntoDispatchAgreement bounds the drift).
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch a=%v b=%v dst=%v", a.Shape, b.Shape, dst.Shape))
	}
	if m >= gemmMR && k > 1 && k*n >= blockedMinWork {
		bufp := gemmPanelPool.Get().(*[]float32)
		matMulBlocked(dst.Data, a.Data, b.Data, m, k, n, *bufp)
		gemmPanelPool.Put(bufp)
		return
	}
	MatMulUnrolledInto(dst, a, b)
}

// MatMulUnrolledInto is the pre-blocking GEMM kernel, kept as the
// small-problem path and as the comparison baseline for the kernels bench.
//
// The kernel keeps the i-k-j loop order (inner loop walks contiguous rows
// of B and C) but accumulates four B rows per sweep: one pass over C per
// four values of A instead of one per value, which quarters the C-row
// load/store traffic and drops the data-dependent av == 0 branch that the
// CPU could not predict on dense inputs. Accumulation order per output
// element is fixed and chunking-free, so results are deterministic
// run-to-run.
func MatMulUnrolledInto(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch a=%v b=%v dst=%v", a.Shape, b.Shape, dst.Shape))
	}
	ad, bd, cd := a.Data, b.Data, dst.Data
	for i := range cd {
		cd[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			b0 := bd[kk*n : (kk+1)*n]
			b1 := bd[(kk+1)*n : (kk+2)*n]
			b2 := bd[(kk+2)*n : (kk+3)*n]
			b3 := bd[(kk+3)*n : (kk+4)*n]
			for j := range crow {
				crow[j] += float32(a0*b0[j]) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
			}
		}
		for ; kk < k; kk++ {
			av := arow[kk]
			brow := bd[kk*n : (kk+1)*n]
			for j, bv := range brow {
				crow[j] += float32(av * bv)
			}
		}
	}
}

// MatMulTransB computes C = A x B^T for A (m x k) and B (n x k), returning
// an m x n tensor. This layout lets both inner loops run over contiguous
// memory, which is the fast path for convolution backward passes. The
// register-tiled kernel (TransBRange) keeps the historical per-element
// ascending-k dot product, so results are bitwise identical to the old
// serial loop at any worker count.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimensions differ: %d vs %d", k, k2))
	}
	c := New(m, n)
	MatMulTransBInto(c, a, b)
	return c
}

// MatMulTransA computes C = A^T x B for A (k x m) and B (k x n), returning
// an m x n tensor.
func MatMulTransA(a, b *Tensor) *Tensor {
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA outer dimensions differ: %d vs %d", k, k2))
	}
	c := New(m, n)
	ad, bd, cd := a.Data, b.Data, c.Data
	for kk := 0; kk < k; kk++ {
		arow := ad[kk*m : (kk+1)*m]
		brow := bd[kk*n : (kk+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := cd[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += float32(av * bv)
			}
		}
	}
	return c
}

// Transpose returns a new tensor that is the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: Transpose requires rank-2 tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	t := New(n, m)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			t.Data[j*m+i] = v
		}
	}
	return t
}

// Softmax writes row-wise softmax of logits (batch x classes) into a new
// tensor, using the max-subtraction trick for numerical stability.
func Softmax(logits *Tensor) *Tensor {
	if len(logits.Shape) != 2 {
		panic("tensor: Softmax requires rank-2 tensor (batch x classes)")
	}
	out := New(logits.Shape...)
	n := logits.Shape[1]
	for i := 0; i < logits.Shape[0]; i++ {
		src := logits.Data[i*n : (i+1)*n]
		dst := out.Data[i*n : (i+1)*n]
		SoftmaxRow(dst, src)
	}
	return out
}

// SoftmaxRow computes softmax of src into dst; both have equal length.
func SoftmaxRow(dst, src []float32) {
	mx := src[0]
	for _, v := range src[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for j, v := range src {
		e := math.Exp(float64(v - mx))
		dst[j] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for j := range dst {
		dst[j] *= inv
	}
}

// Equal reports whether a and b have the same shape and all elements within
// tol of each other.
func Equal(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > tol {
			return false
		}
	}
	return true
}
