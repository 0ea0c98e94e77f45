package binary

import (
	"math"
	"testing"
	"testing/quick"

	"lcrs/internal/tensor"
)

// The parallel packed XNOR convolution must be bitwise identical to the
// single-threaded run on random shapes: chunks own disjoint output planes
// and each element is one integer popcount dot plus a fixed float scale, so
// chunking cannot reassociate anything.
func TestPackedConv2DParallelBitwiseQuick(t *testing.T) {
	f := func(seed int64, rawN, rawC, rawO, rawHW uint8) bool {
		n := int(rawN%3) + 1
		inC := int(rawC%3) + 1
		outC := int(rawO%6) + 1
		hw := int(rawHW%10) + 5
		g := tensor.NewRNG(seed)
		c := NewConv2D("bc", g, inC, outC, 3, 3, 1, 1)
		p := PackConv2D(c)
		x := g.Uniform(-2, 2, n, inC, hw, hw)

		prev := tensor.SetMaxWorkers(1)
		serial := p.Forward(x)
		tensor.SetMaxWorkers(8) // force chunked execution even on 1 CPU
		parallel := p.Forward(x)
		tensor.SetMaxWorkers(prev)

		for i := range serial.Data {
			if math.Float32bits(serial.Data[i]) != math.Float32bits(parallel.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
