package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 || x.Dim(1) != 3 {
		t.Fatalf("bad rank/dim: rank=%d dim1=%d", x.Rank(), x.Dim(1))
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero storage")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}, {3, 0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if got := x.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v, want 7", got)
	}
	if got := x.Data[1*3+2]; got != 7 {
		t.Fatalf("row-major layout broken: Data[5] = %v", got)
	}
}

func TestReshapeInference(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, -1)
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("Reshape(3,-1) shape = %v", y.Shape)
	}
	y.Data[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("Reshape must share storage")
	}
}

func TestReshapeIncompatiblePanics(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("incompatible Reshape did not panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone must copy storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 4)
	b := FromSlice([]float32{4, 3, 2, 1}, 4)
	if s := Add(a, b); s.Data[0] != 5 || s.Data[3] != 5 {
		t.Fatalf("Add wrong: %v", s.Data)
	}
	c := a.Clone()
	c.AddScaled(2, b)
	if c.Data[0] != 9 {
		t.Fatalf("AddScaled wrong: %v", c.Data)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched inner dims did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

// TestMatMulVariantsAgree checks A x B^T and A^T x B against the plain
// kernel using explicit transposes, over random matrices.
func TestMatMulVariantsAgree(t *testing.T) {
	g := NewRNG(1)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+g.Intn(8), 1+g.Intn(8), 1+g.Intn(8)
		a := g.Uniform(-1, 1, m, k)
		b := g.Uniform(-1, 1, k, n)

		ref := MatMul(a, b)
		viaTransB := MatMulTransB(a, transpose(b))
		if !Equal(ref, viaTransB, 1e-4) {
			t.Fatalf("trial %d: MatMulTransB disagrees with MatMul", trial)
		}
		viaTransA := MatMulTransA(transpose(a), b)
		if !Equal(ref, viaTransA, 1e-4) {
			t.Fatalf("trial %d: MatMulTransA disagrees with MatMul", trial)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	g := NewRNG(2)
	a := g.Uniform(-1, 1, 5, 7)
	if !Equal(a, transpose(transpose(a)), 0) {
		t.Fatal("transpose(transpose(a)) != a")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	g := NewRNG(3)
	logits := g.Uniform(-10, 10, 8, 16)
	p := Softmax(logits)
	for i := 0; i < 8; i++ {
		var sum float64
		for _, v := range p.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of [0,1]: %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("softmax row %d sums to %v", i, sum)
		}
	}
	// Shift invariance: softmax(x + c) == softmax(x).
	shifted := logits.Clone()
	for i := range shifted.Data {
		shifted.Data[i] += 100
	}
	if !Equal(p, Softmax(shifted), 1e-5) {
		t.Fatal("softmax is not shift invariant")
	}
}

func TestSoftmaxExtremeLogitsStable(t *testing.T) {
	logits := FromSlice([]float32{1e4, -1e4, 0, 5}, 1, 4)
	p := Softmax(logits)
	for _, v := range p.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax unstable: %v", p.Data)
		}
	}
	if p.Argmax() != 0 {
		t.Fatalf("argmax = %d, want 0", p.Argmax())
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{-1, 2, -3, 4}, 4)
	if s := x.Sum(); s != 2 {
		t.Fatalf("Sum = %v", s)
	}
	if i := x.Argmax(); i != 3 {
		t.Fatalf("Argmax = %d", i)
	}
	mn, mx := x.MinMax()
	if mn != -3 || mx != 4 {
		t.Fatalf("MinMax = %v,%v", mn, mx)
	}
}

// ArgmaxRow's first-strict-max rule, pinned where float comparison is
// subtle: the client's and the edge's top-1 must break these cases alike.
func TestArgmaxRowTies(t *testing.T) {
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	cases := []struct {
		name string
		row  []float32
		want int
	}{
		{"single", []float32{-7}, 0},
		{"tie keeps the first", []float32{1, 3, 2, 3}, 1},
		{"leading NaN is never displaced", []float32{nan, 5, inf}, 0},
		{"NaN never wins", []float32{1, nan, 0.5}, 0},
		{"NaN skipped", []float32{1, nan, 2}, 2},
		{"-0 then +0 tie", []float32{negZero, 0}, 0},
		{"+0 then -0 tie", []float32{0, negZero}, 0},
		{"all -Inf", []float32{-inf, -inf, -inf}, 0},
		{"-Inf then finite", []float32{-inf, -1e30}, 1},
	}
	for _, c := range cases {
		if got := ArgmaxRow(c.row); got != c.want {
			t.Errorf("%s: ArgmaxRow(%v) = %d, want %d", c.name, c.row, got, c.want)
		}
		if got := FromSlice(c.row, len(c.row)).Argmax(); got != c.want {
			t.Errorf("%s: Argmax = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBatchSharesStorage(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b1 := x.Batch(1)
	if b1.Rank() != 1 || b1.Dim(0) != 3 || b1.Data[0] != 4 {
		t.Fatalf("Batch(1) = %v %v", b1.Shape, b1.Data)
	}
	b1.Data[0] = 40
	if x.Data[3] != 40 {
		t.Fatal("Batch must share storage")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Normal(0, 1, 100)
	b := NewRNG(42).Normal(0, 1, 100)
	if !Equal(a, b, 0) {
		t.Fatal("same seed must give identical tensors")
	}
	c := NewRNG(43).Normal(0, 1, 100)
	if Equal(a, c, 0) {
		t.Fatal("different seeds gave identical tensors")
	}
}

func TestKaimingConvScale(t *testing.T) {
	g := NewRNG(7)
	w := g.KaimingConv(64, 32, 3, 3)
	var ss float64
	for _, v := range w.Data {
		ss += float64(v) * float64(v)
	}
	std := math.Sqrt(ss / float64(w.Len()))
	want := math.Sqrt(2.0 / (32 * 3 * 3))
	if math.Abs(std-want)/want > 0.1 {
		t.Fatalf("Kaiming std = %v, want about %v", std, want)
	}
}

// Property: Col2Im(Im2Col(x)) with stride=kernel (non-overlapping) recovers
// the unpadded input exactly.
func TestIm2ColCol2ImNonOverlappingIdentity(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 2, KW: 2, Stride: 2, Pad: 0}
	rng := NewRNG(11)
	img := rng.Uniform(-1, 1, g.InC*g.InH*g.InW)
	cols := make([]float32, g.OutH()*g.OutW()*g.InC*g.KH*g.KW)
	g.Im2Col(cols, img.Data)
	back := make([]float32, len(img.Data))
	g.Col2Im(back, cols)
	for i := range back {
		if back[i] != img.Data[i] {
			t.Fatalf("identity violated at %d: %v != %v", i, back[i], img.Data[i])
		}
	}
}

// Property: Im2Col and Col2Im are adjoint: <Im2Col(x), y> == <x, Col2Im(y)>.
// This is exactly the identity the conv backward pass relies on.
func TestIm2ColAdjointProperty(t *testing.T) {
	rng := NewRNG(13)
	for trial := 0; trial < 10; trial++ {
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 4 + rng.Intn(5), InW: 4 + rng.Intn(5),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3),
			Stride: 1 + rng.Intn(2), Pad: rng.Intn(2),
		}
		if g.Validate() != nil {
			continue
		}
		nImg := g.InC * g.InH * g.InW
		nCols := g.OutH() * g.OutW() * g.InC * g.KH * g.KW
		x := rng.Uniform(-1, 1, nImg)
		y := rng.Uniform(-1, 1, nCols)

		cx := make([]float32, nCols)
		g.Im2Col(cx, x.Data)
		var lhs float64
		for i := range cx {
			lhs += float64(cx[i]) * float64(y.Data[i])
		}

		iy := make([]float32, nImg)
		g.Col2Im(iy, y.Data)
		var rhs float64
		for i := range iy {
			rhs += float64(iy[i]) * float64(x.Data[i])
		}
		if math.Abs(lhs-rhs) > 1e-3*(1+math.Abs(lhs)) {
			t.Fatalf("trial %d: adjoint violated: %v vs %v (geom %+v)", trial, lhs, rhs, g)
		}
	}
}

func TestConvGeomValidate(t *testing.T) {
	bad := []ConvGeom{
		{InC: 0, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1},
		{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 0},
		{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 0},
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("case %d: Validate accepted invalid geometry %+v", i, g)
		}
	}
	good := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected valid geometry: %v", err)
	}
	if good.OutH() != 32 || good.OutW() != 32 {
		t.Errorf("same-padding output = %dx%d, want 32x32", good.OutH(), good.OutW())
	}
}

// Property-based: addition is commutative and Scale distributes over Add.
func TestArithmeticPropertiesQuick(t *testing.T) {
	f := func(raw []float32, s float32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		for _, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return true
			}
		}
		if math.IsNaN(float64(s)) || math.IsInf(float64(s), 0) {
			return true
		}
		a := FromSlice(append([]float32(nil), raw...), len(raw))
		b := FromSlice(append([]float32(nil), raw...), len(raw))
		b.Scale(0.5)
		if !Equal(Add(a, b), Add(b, a), 0) {
			return false
		}
		lhs := Add(a, b).Scale(s)
		rhs := Add(a.Clone().Scale(s), b.Clone().Scale(s))
		return Equal(lhs, rhs, 1e-2*math.Abs(float64(s))+1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// transpose returns a new tensor that is the transpose of a rank-2 tensor:
// the reference the MatMulTransA/TransB checks multiply through.
func transpose(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: transpose requires rank-2 tensor")
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
