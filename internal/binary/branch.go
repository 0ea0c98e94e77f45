package binary

import (
	"fmt"

	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// PackedBranch is the deployment form of a binary branch: one flat,
// eval-only nn.Sequential whose binary layers are PackedLayers (XNOR+popcount
// kernels) and whose float layers (pooling, batch norm, the final
// classifier) run as they are — the shape models.BuildClient builds. This
// is the role the paper's C++-to-WASM library plays inside the mobile web
// browser. The packed layers keep eval scratch, so a branch runs one
// Forward at a time.
type PackedBranch struct {
	seq *nn.Sequential
}

// PackBranch converts a trained binary branch (a Sequential mixing
// binary.Conv2D/binary.Linear with float layers) into its packed form.
// Layers that are packed already (PackedLayer, as models.BuildClient builds
// them) are taken as they are: nothing is packed a second time.
func PackBranch(seq *nn.Sequential) *PackedBranch {
	flat := nn.NewSequential(seq.Name())
	nn.Walk(seq, func(l nn.Layer) {
		switch t := l.(type) {
		case *nn.Sequential:
			// container; children visited separately
		case *nn.Residual:
			// Residual blocks inside a binary branch would need their own
			// packed executor; the paper's branches are purely sequential.
			panic("binary: PackBranch does not support residual blocks")
		case *Conv2D:
			flat.Append(PackedLayer{Conv: PackConv2D(t)})
		case *Linear:
			flat.Append(PackedLayer{Linear: PackLinear(t)})
		default:
			flat.Append(l)
		}
	})
	return &PackedBranch{seq: flat}
}

// Forward runs the packed branch on a batch (NCHW or (batch, features)).
func (pb *PackedBranch) Forward(x *tensor.Tensor) *tensor.Tensor {
	return pb.seq.Forward(x, false)
}

// SizeBytes returns the deployed footprint of the branch: packed bits for
// binary layers, four bytes per parameter (plus batch-norm statistics) for
// the float layers.
func (pb *PackedBranch) SizeBytes() int64 {
	var total int64
	for _, l := range pb.seq.Layers {
		if p, ok := l.(PackedLayer); ok {
			total += p.SizeBytes()
			continue
		}
		for _, p := range l.Params() {
			total += int64(p.Value.Len()) * 4
		}
		if bn, ok := l.(*nn.BatchNorm); ok {
			total += int64(bn.RunningMean.Len()+bn.RunningVar.Len()) * 4
		}
	}
	return total
}

// Stages returns the number of layers the branch runs, for diagnostics.
func (pb *PackedBranch) Stages() int { return len(pb.seq.Layers) }

// String summarizes the branch composition.
func (pb *PackedBranch) String() string {
	packed := 0
	for _, l := range pb.seq.Layers {
		if _, ok := l.(PackedLayer); ok {
			packed++
		}
	}
	return fmt.Sprintf("PackedBranch{%d packed + %d float stages, %d bytes}",
		packed, len(pb.seq.Layers)-packed, pb.SizeBytes())
}
