// Package tensor provides the dense float32 tensor type and the numeric
// kernels (element-wise ops, matrix multiply, im2col) that the neural-network
// substrate is built on. Tensors use row-major layout; convolutional data is
// stored NCHW (batch, channel, height, width).
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense, row-major float32 array with an explicit shape.
// The zero value is an empty tensor; use New or the RNG helpers to
// create usable tensors.
type Tensor struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data is the backing array, len(Data) == product(Shape).
	Data []float32
}

// New creates a tensor with the given shape backed by freshly allocated,
// zeroed storage.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// Ones creates a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = 1
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly, not copied; the caller must not alias it afterwards unless that
// sharing is intended. It panics if len(data) does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the extent of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's storage with a new shape. One
// dimension may be -1, in which case it is inferred. It panics if the
// element count cannot match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
		case d <= 0:
			panic(fmt.Sprintf("tensor: Reshape invalid dimension %d", d))
		default:
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.Data)%known != 0 {
			panic(fmt.Sprintf("tensor: Reshape cannot infer dimension for %v from %d elements", shape, len(t.Data)))
		}
		shape[infer] = len(t.Data) / known
		known *= shape[infer]
	}
	if known != len(t.Data) {
		panic(fmt.Sprintf("tensor: Reshape %v incompatible with %d elements", shape, len(t.Data)))
	}
	return &Tensor{Shape: shape, Data: t.Data}
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set assigns v to the element at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// String renders small tensors in full and large tensors as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.Shape)
	if len(t.Data) <= 16 {
		fmt.Fprintf(&b, "%v", t.Data)
	} else {
		mn, mx := t.MinMax()
		fmt.Fprintf(&b, "{n=%d min=%.4g max=%.4g}", len(t.Data), mn, mx)
	}
	return b.String()
}

// MinMax returns the minimum and maximum elements. It panics on empty
// tensors (New forbids them, so this only triggers on zero-value misuse).
func (t *Tensor) MinMax() (mn, mx float32) {
	mn, mx = t.Data[0], t.Data[0]
	for _, v := range t.Data[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// Sum returns the sum of all elements in float64 for accuracy.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Argmax returns the index of the largest element in the flattened tensor,
// by ArgmaxRow's rule.
func (t *Tensor) Argmax() int { return ArgmaxRow(t.Data) }

// ArgmaxRow returns the index of the first strict maximum of row: an element
// wins only by comparing greater than every one before it, so a tie keeps
// the earliest index, −0 and +0 tie, a NaN never wins (a leading NaN is
// never displaced either) and an all −Inf row answers 0. This is the one
// top-1 rule of the repository: the client's binary answer and the edge's
// main answer are compared for agreement, so both must break ties alike.
func ArgmaxRow(row []float32) int {
	best, bi := row[0], 0
	for i, v := range row[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Row returns row i of a rank-2 tensor as a slice sharing storage.
func (t *Tensor) Row(i int) []float32 {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on rank-%d tensor", len(t.Shape)))
	}
	w := t.Shape[1]
	return t.Data[i*w : (i+1)*w]
}

// Batch returns element i of the outermost dimension as a tensor sharing
// storage, with that dimension removed.
func (t *Tensor) Batch(i int) *Tensor {
	if len(t.Shape) < 2 {
		panic("tensor: Batch needs rank >= 2")
	}
	if i < 0 || i >= t.Shape[0] {
		panic(fmt.Sprintf("tensor: Batch index %d out of range %d", i, t.Shape[0]))
	}
	n := len(t.Data) / t.Shape[0]
	return &Tensor{
		Shape: append([]int(nil), t.Shape[1:]...),
		Data:  t.Data[i*n : (i+1)*n],
	}
}
