package dataset

import (
	"bytes"
	"image/png"
	"math"
	"testing"

	"lcrs/internal/tensor"
)

func TestGenerateShapesAndDeterminism(t *testing.T) {
	for _, spec := range Specs() {
		d := Generate(spec, 40, 7)
		if d.Len() != 40 {
			t.Fatalf("%s: Len = %d", spec.Name, d.Len())
		}
		shape := d.SampleShape()
		if shape[0] != spec.C || shape[1] != spec.H || shape[2] != spec.W {
			t.Fatalf("%s: sample shape %v", spec.Name, shape)
		}
		d2 := Generate(spec, 40, 7)
		if !tensor.Equal(d.X, d2.X, 0) {
			t.Fatalf("%s: same seed produced different data", spec.Name)
		}
		d3 := Generate(spec, 40, 8)
		if tensor.Equal(d.X, d3.X, 0) {
			t.Fatalf("%s: different seed produced identical data", spec.Name)
		}
	}
}

func TestGenerateClassBalanceAndRange(t *testing.T) {
	spec, err := SpecByName("cifar10")
	if err != nil {
		t.Fatal(err)
	}
	d := Generate(spec, 100, 1)
	counts := make([]int, spec.Classes)
	for _, l := range d.Labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 10 {
			t.Fatalf("class %d has %d samples, want 10 (interleaved)", c, n)
		}
	}
	mn, mx := d.X.MinMax()
	if mn < -3 || mx > 3 {
		t.Fatalf("pixel range [%v,%v] implausible", mn, mx)
	}
}

func TestSpecByNameUnknown(t *testing.T) {
	if _, err := SpecByName("imagenet"); err == nil {
		t.Fatal("SpecByName must reject unknown names")
	}
}

// Classes must be separable: the mean intra-class distance should be well
// below the mean inter-class distance on the easiest dataset, and the
// separation margin should shrink as difficulty grows.
func TestDifficultyOrdering(t *testing.T) {
	margin := func(name string) float64 {
		spec, err := SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d := Generate(spec, 200, 3)
		per := spec.C * spec.H * spec.W
		// Distance between class means vs within-class spread.
		means := make([][]float64, spec.Classes)
		counts := make([]int, spec.Classes)
		for i := 0; i < d.Len(); i++ {
			c := d.Labels[i]
			if means[c] == nil {
				means[c] = make([]float64, per)
			}
			img := d.X.Batch(i).Data
			for j, v := range img {
				means[c][j] += float64(v)
			}
			counts[c]++
		}
		for c := range means {
			for j := range means[c] {
				means[c][j] /= float64(counts[c])
			}
		}
		var intra, inter float64
		var nIntra, nInter int
		for i := 0; i < d.Len(); i++ {
			c := d.Labels[i]
			img := d.X.Batch(i).Data
			var dist float64
			for j, v := range img {
				dd := float64(v) - means[c][j]
				dist += dd * dd
			}
			intra += math.Sqrt(dist)
			nIntra++
		}
		for a := 0; a < spec.Classes; a++ {
			for b := a + 1; b < spec.Classes; b++ {
				var dist float64
				for j := range means[a] {
					dd := means[a][j] - means[b][j]
					dist += dd * dd
				}
				inter += math.Sqrt(dist)
				nInter++
			}
		}
		return (inter / float64(nInter)) / (intra / float64(nIntra))
	}

	mnist := margin("mnist")
	cifar10 := margin("cifar10")
	if mnist < 1.0 {
		t.Fatalf("mnist separation ratio %v too low; classes not separable", mnist)
	}
	if cifar10 >= mnist {
		t.Fatalf("difficulty ordering violated: cifar10 ratio %v >= mnist ratio %v", cifar10, mnist)
	}
}

func TestSplit(t *testing.T) {
	d, err := GenerateByName("mnist", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, test := d.Split(0.8)
	if train.Len() != 40 || test.Len() != 10 {
		t.Fatalf("split sizes %d/%d, want 40/10", train.Len(), test.Len())
	}
	// Views share storage with the parent.
	train.X.Data[0] = 42
	if d.X.Data[0] != 42 {
		t.Fatal("Split must return views")
	}
}

func TestSplitPanicsOnDegenerateFraction(t *testing.T) {
	d, _ := GenerateByName("mnist", 10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("degenerate split did not panic")
		}
	}()
	d.Split(0)
}

func TestBatchesCoverAllSamplesOnce(t *testing.T) {
	d, _ := GenerateByName("mnist", 23, 1)
	g := tensor.NewRNG(5)
	batches := d.Batches(g, 8)
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3", len(batches))
	}
	total := 0
	classCounts := map[int]int{}
	for _, b := range batches {
		total += len(b.Labels)
		if b.X.Dim(0) != len(b.Labels) {
			t.Fatal("batch tensor and label count disagree")
		}
		for _, l := range b.Labels {
			classCounts[l]++
		}
	}
	if total != 23 {
		t.Fatalf("batches covered %d samples, want 23", total)
	}
	want := map[int]int{}
	for _, l := range d.Labels {
		want[l]++
	}
	for c, n := range want {
		if classCounts[c] != n {
			t.Fatalf("class %d appeared %d times, want %d", c, classCounts[c], n)
		}
	}
}

func TestAugmentationsPreserveShape(t *testing.T) {
	g := tensor.NewRNG(1)
	img := g.Uniform(-1, 1, 3, 16, 16)
	augs := map[string]Augmentation{
		"rotate":    Rotate(30),
		"translate": Translate(2),
		"zoom":      Zoom(0.8, 1.2),
		"flip":      FlipH(1),
		"color":     ColorPerturb(0.3),
		"pipeline":  StandardLogoPipeline(),
	}
	for name, a := range augs {
		out := a(g, img)
		if !out.SameShape(img) {
			t.Errorf("%s changed shape to %v", name, out.Shape)
		}
	}
}

func TestFlipHIsInvolution(t *testing.T) {
	g := tensor.NewRNG(2)
	img := g.Uniform(-1, 1, 1, 8, 8)
	flip := FlipH(1)
	twice := flip(g, flip(g, img))
	if !tensor.Equal(img, twice, 0) {
		t.Fatal("flipping twice must restore the image")
	}
}

func TestZoomIdentityFactor(t *testing.T) {
	g := tensor.NewRNG(3)
	img := g.Uniform(-1, 1, 1, 8, 8)
	out := Zoom(1, 1)(g, img)
	if !tensor.Equal(img, out, 1e-6) {
		t.Fatal("zoom factor 1 must be identity")
	}
}

func TestGenerateLogos(t *testing.T) {
	spec := DefaultLogoSpec()
	d := GenerateLogos(spec, 64, 9)
	if d.Len() != 64 || d.Classes != spec.Brands {
		t.Fatalf("logos: len=%d classes=%d", d.Len(), d.Classes)
	}
	d2 := GenerateLogos(spec, 64, 9)
	if !tensor.Equal(d.X, d2.X, 0) {
		t.Fatal("logo generation must be deterministic")
	}
	// Augmented samples of the same brand must differ from each other.
	if tensor.Equal(d.X.Batch(0), d.X.Batch(spec.Brands), 1e-6) {
		t.Fatal("augmentation produced identical samples")
	}
	// Images must be non-trivial (emblem pixels present).
	if mn, mx := d.X.MinMax(); mn == 0 && mx == 0 {
		t.Fatal("logo images are empty")
	}
}

// Prefix property: generating more samples never changes the earlier ones,
// so experiments with different session lengths see consistent data.
func TestGeneratePrefixStable(t *testing.T) {
	spec, err := SpecByName("fashion")
	if err != nil {
		t.Fatal(err)
	}
	small := Generate(spec, 20, 5)
	big := Generate(spec, 60, 5)
	per := spec.C * spec.H * spec.W
	for i := 0; i < 20; i++ {
		if big.Labels[i] != small.Labels[i] {
			t.Fatalf("label %d changed with n", i)
		}
		a := small.X.Data[i*per : (i+1)*per]
		b := big.X.Data[i*per : (i+1)*per]
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("pixel %d of sample %d changed with n", j, i)
			}
		}
	}
}

func TestContactSheet(t *testing.T) {
	d, _ := GenerateByName("cifar10", 12, 1)
	var buf bytes.Buffer
	if err := d.WriteContactSheet(&buf, 3, 4); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("output is not a PNG: %v", err)
	}
	b := img.Bounds()
	if b.Dx() != 4*33-1 || b.Dy() != 3*33-1 {
		t.Fatalf("sheet size %v, want 131x98", b)
	}
	// Grid larger than the dataset must fail.
	if err := d.WriteContactSheet(&buf, 4, 4); err == nil {
		t.Fatal("oversized grid accepted")
	}
	if err := d.WriteContactSheet(&buf, 0, 4); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestSampleImageGrayscale(t *testing.T) {
	d, _ := GenerateByName("mnist", 2, 1)
	img := d.SampleImage(0)
	r, g, b, _ := img.At(5, 5).RGBA()
	if r != g || g != b {
		t.Fatal("single-channel sample must render gray")
	}
}
