package bench

import (
	"bytes"
	"fmt"
	"time"

	"lcrs/internal/collab"
	"lcrs/internal/edgesim"
	"lcrs/internal/tensor"
)

// offloadCodecs is the sweep order of the offload-bytes experiment.
var offloadCodecs = []string{"raw", "f16", "q8", "q4", "q2"}

// OffloadBytes maps the offload wire codec to its three-way trade: bytes
// on the wire (the paper's communication-cost unit), main-branch accuracy
// delta after the intermediate tensor round-trips the codec, and simulated
// end-to-end latency over the paper's 4G profile — plus the queueing
// sojourn when 60 clients share the edge, where smaller frames also shrink
// the uplink term. The acceptance bar: q8 cuts the conv1 activation frame
// at least 3x vs raw while the main branch's predictions barely move.
func (r *Runner) OffloadBytes() error {
	arch, ds := "alexnet", "cifar10"
	if r.Cfg.Quick {
		arch, ds = "lenet", "mnist"
	}
	tm, err := r.train(arch, ds)
	if err != nil {
		return err
	}
	ref, err := r.fullScale(arch)
	if err != nil {
		return err
	}
	cm := r.costModel()

	// Fixed sample batch from the test split: the accuracy column is the
	// main branch evaluated on codec-round-tripped intermediates.
	n := r.Cfg.SessionSamples
	if n > tm.test.Len() {
		n = tm.test.Len()
	}
	x0, _ := tm.test.Sample(0)
	batch := tensor.New(append([]int{n}, x0.Shape...)...)
	labels := make([]int, n)
	per := x0.Len()
	for i := 0; i < n; i++ {
		x, label := tm.test.Sample(i)
		copy(batch.Data[i*per:(i+1)*per], x.Data)
		labels[i] = label
	}
	shared := tm.model.ForwardShared(batch, false)
	rawLogits := tm.model.ForwardMainRest(shared, false)
	rawPreds := predsOf(rawLogits)
	rawAcc := accuracyOf(rawPreds, labels)

	rawWire := collab.FrameBytesFor(ref.SharedOutShape(), collab.Raw)
	serverFLOPs := ref.MainRest.FLOPs(ref.SharedOutShape())
	restService := cm.Server.ComputeTime(serverFLOPs)

	r.printf("Offload codec sweep (%s-%s, conv1 activation %v, exit rate %.0f%%, %d-sample batch)\n",
		arch, ds, ref.SharedOutShape(), tm.exit.ExitRate*100, n)
	header := []string{"Codec", "Frame(KB)", "vs raw", "MainAcc(%)", "AccDelta(pp)", "Top1 match(%)", "E[latency](ms)", "Sojourn@60(ms)"}
	var rows [][]string
	var q8Ratio float64
	for _, name := range offloadCodecs {
		codec, err := collab.CodecByName(name)
		if err != nil {
			return err
		}
		wire := collab.FrameBytesFor(ref.SharedOutShape(), codec)
		ratio := float64(rawWire) / float64(wire)
		if name == "q8" {
			q8Ratio = ratio
		}

		// Accuracy through the codec: encode, decode, run the main rest.
		decoded := shared
		if codec.ID() != collab.CodecRaw {
			var buf bytes.Buffer
			if err := collab.WriteTensorCodec(&buf, shared, codec); err != nil {
				return err
			}
			decoded, _, err = collab.ReadFrame(&buf)
			if err != nil {
				return err
			}
		}
		logits := tm.model.ForwardMainRest(decoded, false)
		preds := predsOf(logits)
		acc := accuracyOf(preds, labels)
		match := 0
		for i, p := range preds {
			if p == rawPreds[i] {
				match++
			}
		}

		// Expected per-sample latency with the codec's frame on the uplink.
		bp := edgesim.BranchPointForComposite(ref, tm.exit.ExitRate)
		bp.IntermediateBytes = wire
		exp := edgesim.ExpectedLatency(bp, cm)

		// Edge shared by 60 clients: the uplink term scales with the frame.
		sim, err := edgesim.Run(edgesim.Workload{
			Clients: 60, RequestRate: 1, OffloadFraction: 1 - tm.exit.ExitRate,
			ServiceTime: restService, Link: cm.Link, PayloadBytes: wire,
			Duration: 30 * time.Second, Seed: r.Cfg.Seed,
		})
		if err != nil {
			return err
		}

		rows = append(rows, []string{
			codec.Name(),
			fmt.Sprintf("%.1f", float64(wire)/1024),
			fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%.1f", acc*100),
			fmt.Sprintf("%+.1f", (acc-rawAcc)*100),
			fmt.Sprintf("%.0f", float64(match)/float64(n)*100),
			ms(exp),
			ms(sim.MeanSojourn),
		})
	}
	r.table(header, rows)
	r.printf("q8 payload reduction vs raw: %.2fx (acceptance bar: >= 3x)\n", q8Ratio)
	return nil
}

// predsOf returns the per-row argmax of a logits matrix.
func predsOf(logits *tensor.Tensor) []int {
	preds := make([]int, logits.Dim(0))
	for i := range preds {
		row := logits.Row(i)
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		preds[i] = bi
	}
	return preds
}

// accuracyOf scores predictions against labels.
func accuracyOf(preds, labels []int) float64 {
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(preds))
}
