package tensor

import (
	"strings"
	"testing"
)

func TestOnesAndFull(t *testing.T) {
	for _, shape := range [][]int{{2, 3}, {4}, {1, 2, 2}} {
		o := Ones(shape...)
		want := 1
		for _, d := range shape {
			want *= d
		}
		if o.Len() != want {
			t.Fatalf("Ones%v: %d elements, want %d", shape, o.Len(), want)
		}
		for _, v := range o.Data {
			if v != 1 {
				t.Fatalf("Ones%v must fill every element with 1", shape)
			}
		}
	}
}

func TestFillAndZero(t *testing.T) {
	x := Ones(3)
	for i := range x.Data {
		x.Data[i] = 7
	}
	x.Zero()
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("Zero must clear every element")
		}
	}
}

func TestRowPanicsOnNonMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Row on rank-3 tensor did not panic")
		}
	}()
	New(2, 2, 2).Row(0)
}

func TestBatchPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Batch out of range did not panic")
		}
	}()
	New(2, 3).Batch(5)
}

func TestAtPanicsOnBadIndex(t *testing.T) {
	x := New(2, 3)
	for _, idx := range [][]int{{0}, {0, 3}, {-1, 0}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", idx)
				}
			}()
			x.At(idx...)
		}()
	}
}

func TestStringForms(t *testing.T) {
	small := FromSlice([]float32{1, 2}, 2)
	if s := small.String(); !strings.Contains(s, "1") || !strings.Contains(s, "Tensor") {
		t.Fatalf("small String = %q", s)
	}
	big := New(100)
	if s := big.String(); !strings.Contains(s, "n=100") {
		t.Fatalf("big String = %q", s)
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	g := NewRNG(1)
	a := g.Uniform(-1, 1, 4, 5)
	b := g.Uniform(-1, 1, 5, 6)
	want := MatMul(a, b)
	dst := New(4, 6)
	for i := range dst.Data {
		dst.Data[i] = 99 // must be overwritten, not accumulated
	}
	MatMulInto(dst, a, b)
	if !Equal(want, dst, 0) {
		t.Fatal("MatMulInto disagrees with MatMul")
	}
}

func TestMatMulIntoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulInto with wrong dst shape did not panic")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(3, 3))
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(1)
	a := parent.Split()
	b := parent.Split()
	av := a.Normal(0, 1, 50)
	bv := b.Normal(0, 1, 50)
	if Equal(av, bv, 0) {
		t.Fatal("split children produced identical streams")
	}
}

func TestSoftmaxRequiresRank2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Softmax on rank-1 did not panic")
		}
	}()
	Softmax(New(4))
}
