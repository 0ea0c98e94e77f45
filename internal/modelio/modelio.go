// Package modelio serializes composite models. Two formats are provided:
//
//   - Checkpoint: every tensor (parameters and batch-norm running
//     statistics) in float32 — the weights the edge server serves from.
//   - Browser bundle: what the mobile web browser downloads before it can
//     run the binary branch — the shared prefix in float32 and every binary
//     layer as packed sign bits plus per-filter scales. Its encoded length
//     is the model-loading payload the paper's Table III charges against
//     each approach.
//
// Both formats are deterministic, little-endian, and versioned. On disk
// they travel together in one deploy pack (pack.go), with the screened
// exit threshold and the architecture that rebuilds the model.
package modelio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"lcrs/internal/models"
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

const (
	magic          = uint32(0x4C435253) // "LCRS"
	versionCurrent = uint32(1)

	kindFloat  = byte(0)
	kindPacked = byte(1)
)

// state is one named tensor of a model, including non-parameter state.
type state struct {
	name string
	t    *tensor.Tensor
}

// stateTensors lists every tensor of a layer tree: parameters plus
// batch-norm running statistics, keyed by unique names.
func stateTensors(prefix string, l nn.Layer) []state {
	var out []state
	nn.Walk(l, func(layer nn.Layer) {
		switch t := layer.(type) {
		case *nn.Sequential, *nn.Residual:
			return // containers: children visited separately
		case *nn.BatchNorm:
			for _, p := range t.Params() {
				out = append(out, state{prefix + p.Name, p.Value})
			}
			out = append(out, state{prefix + t.Name() + ".running_mean", t.RunningMean})
			out = append(out, state{prefix + t.Name() + ".running_var", t.RunningVar})
		default:
			for _, p := range layer.Params() {
				out = append(out, state{prefix + p.Name, p.Value})
			}
		}
	})
	return out
}

// compositeState lists every tensor of a composite model.
func compositeState(m *models.Composite) []state {
	var out []state
	out = append(out, stateTensors("shared.", m.Shared)...)
	out = append(out, stateTensors("main.", m.MainRest)...)
	out = append(out, stateTensors("binary.", m.Binary)...)
	return out
}

func writeHeader(w io.Writer, sections uint32) error {
	for _, v := range []uint32{magic, versionCurrent, sections} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("modelio: write header: %w", err)
		}
	}
	return nil
}

func readHeader(r io.Reader) (sections uint32, err error) {
	var m, v uint32
	if err := binary.Read(r, binary.LittleEndian, &m); err != nil {
		return 0, fmt.Errorf("modelio: read magic: %w", err)
	}
	if m != magic {
		return 0, fmt.Errorf("modelio: bad magic 0x%08x", m)
	}
	if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
		return 0, fmt.Errorf("modelio: read version: %w", err)
	}
	if v != versionCurrent {
		return 0, fmt.Errorf("modelio: unsupported version %d", v)
	}
	if err := binary.Read(r, binary.LittleEndian, &sections); err != nil {
		return 0, fmt.Errorf("modelio: read section count: %w", err)
	}
	return sections, nil
}

func writeName(w io.Writer, name string) error {
	if len(name) > math.MaxUint16 {
		return fmt.Errorf("modelio: name too long: %d bytes", len(name))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(name))); err != nil {
		return err
	}
	_, err := w.Write([]byte(name))
	return err
}

func readName(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeFloatSection(w io.Writer, name string, t *tensor.Tensor) error {
	if _, err := w.Write([]byte{kindFloat}); err != nil {
		return err
	}
	if err := writeName(w, name); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(t.Len())); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, t.Data)
}

// SaveComposite writes a full checkpoint of m.
func SaveComposite(w io.Writer, m *models.Composite) error {
	bw := bufio.NewWriter(w)
	states := compositeState(m)
	if err := writeHeader(bw, uint32(len(states))); err != nil {
		return err
	}
	for _, s := range states {
		if err := writeFloatSection(bw, s.name, s.t); err != nil {
			return fmt.Errorf("modelio: write %s: %w", s.name, err)
		}
	}
	return bw.Flush()
}

// LoadComposite reads a checkpoint written by SaveComposite into a model of
// the identical architecture and configuration. Every serialized tensor
// must match a model tensor by name and length, and vice versa.
func LoadComposite(r io.Reader, m *models.Composite) error {
	br := bufio.NewReader(r)
	sections, err := readHeader(br)
	if err != nil {
		return err
	}
	byName := map[string]*tensor.Tensor{}
	for _, s := range compositeState(m) {
		byName[s.name] = s.t
	}
	if int(sections) != len(byName) {
		return fmt.Errorf("modelio: checkpoint has %d tensors, model has %d", sections, len(byName))
	}
	for i := uint32(0); i < sections; i++ {
		var kind [1]byte
		if _, err := io.ReadFull(br, kind[:]); err != nil {
			return fmt.Errorf("modelio: read section kind: %w", err)
		}
		if kind[0] != kindFloat {
			return fmt.Errorf("modelio: checkpoint contains non-float section kind %d", kind[0])
		}
		name, err := readName(br)
		if err != nil {
			return fmt.Errorf("modelio: read section name: %w", err)
		}
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return fmt.Errorf("modelio: read %s length: %w", name, err)
		}
		dst, ok := byName[name]
		if !ok {
			return fmt.Errorf("modelio: checkpoint tensor %q not in model", name)
		}
		if int(n) != dst.Len() {
			return fmt.Errorf("modelio: tensor %q has %d values, model wants %d", name, n, dst.Len())
		}
		if err := binary.Read(br, binary.LittleEndian, dst.Data); err != nil {
			return fmt.Errorf("modelio: read %s data: %w", name, err)
		}
		delete(byName, name)
	}
	if len(byName) != 0 {
		return errors.New("modelio: checkpoint missing tensors for model")
	}
	return nil
}
