package binary

import (
	"fmt"

	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// PackedBranch is the deployment-time executor for a binary branch: every
// binary layer is bit-packed (XNOR+popcount kernels) and interleaved float
// layers (pooling, batch norm, the final classifier) run as-is in inference
// mode. This is the role the paper's C++-to-WASM library plays inside the
// mobile web browser. The packed layers keep eval scratch, so a branch runs
// one Forward at a time.
type PackedBranch struct {
	stages []packedStage
}

type packedStage struct {
	conv   *PackedConv2D
	linear *PackedLinear
	float  nn.Layer
}

// PackBranch converts a trained binary branch (a Sequential mixing
// binary.Conv2D/binary.Linear with float layers) into its packed executor.
// Layers that are packed already (PackedLayer, as models.BuildClient builds
// them) are taken as they are: nothing is packed a second time.
func PackBranch(seq *nn.Sequential) *PackedBranch {
	pb := &PackedBranch{}
	nn.Walk(seq, func(l nn.Layer) {
		switch t := l.(type) {
		case *nn.Sequential:
			// container; children visited separately
		case *nn.Residual:
			// Residual blocks inside a binary branch would need their own
			// packed executor; the paper's branches are purely sequential.
			panic("binary: PackBranch does not support residual blocks")
		case *Conv2D:
			pb.stages = append(pb.stages, packedStage{conv: PackConv2D(t)})
		case *Linear:
			pb.stages = append(pb.stages, packedStage{linear: PackLinear(t)})
		case PackedLayer:
			pb.stages = append(pb.stages, packedStage{conv: t.Conv, linear: t.Linear})
		default:
			pb.stages = append(pb.stages, packedStage{float: l})
		}
	})
	return pb
}

// Forward runs the packed branch on a batch (NCHW or (batch, features)).
func (pb *PackedBranch) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, st := range pb.stages {
		switch {
		case st.conv != nil:
			x = st.conv.Forward(x)
		case st.linear != nil:
			x = st.linear.Forward(x)
		default:
			x = st.float.Forward(x, false)
		}
	}
	return x
}

// SizeBytes returns the deployed footprint of the branch: packed bits for
// binary layers, four bytes per parameter (plus batch-norm statistics) for
// the float layers.
func (pb *PackedBranch) SizeBytes() int64 {
	var total int64
	for _, st := range pb.stages {
		switch {
		case st.conv != nil:
			total += st.conv.SizeBytes()
		case st.linear != nil:
			total += st.linear.SizeBytes()
		default:
			for _, p := range st.float.Params() {
				total += int64(p.Value.Len()) * 4
			}
			if bn, ok := st.float.(*nn.BatchNorm); ok {
				total += int64(bn.RunningMean.Len()+bn.RunningVar.Len()) * 4
			}
		}
	}
	return total
}

// Stages returns the number of executable stages, for diagnostics.
func (pb *PackedBranch) Stages() int { return len(pb.stages) }

// String summarizes the branch composition.
func (pb *PackedBranch) String() string {
	packed, float := 0, 0
	for _, st := range pb.stages {
		if st.float == nil {
			packed++
		} else {
			float++
		}
	}
	return fmt.Sprintf("PackedBranch{%d packed + %d float stages, %d bytes}", packed, float, pb.SizeBytes())
}
