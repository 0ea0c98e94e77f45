package modelio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	binlayer "lcrs/internal/binary"
	"lcrs/internal/models"
	"lcrs/internal/nn"
	"lcrs/internal/tensor"
)

// bundleSection is one named section of a browser bundle, bound to the
// storage of the model it is encoded from or decoded into.
//
// A float section is one tensor, t. A packed section is a binary layer: rows
// sign-bit rows of n bits, a scale per row and a bias per row. It binds to
// one of two kinds of layer. A float-shadow layer (binary.Conv2D/Linear, as
// models.Build makes them) gives weight, and the bits decode into it as
// +-alpha. A packed layer (binary.PackedLayer, as models.BuildClient makes
// them) gives alpha and w, and the section is copied into them as it is.
type bundleSection struct {
	name string
	t    *tensor.Tensor

	rows, n int
	bias    []float32
	weight  *tensor.Tensor
	alpha   []float32
	w       *binlayer.PackedMatrix
}

func (s *bundleSection) packed() bool { return s.t == nil }

// encodedLen is the exact number of bytes the section occupies in a bundle.
func (s *bundleSection) encodedLen() int {
	head := 1 + 2 + len(s.name) // kind, name length, name
	if !s.packed() {
		return head + 4 + 4*s.t.Len()
	}
	return head + 8 + 4*s.rows + 4*s.rows + 8*s.rows*wordsPerRow(s.n)
}

func wordsPerRow(n int) int { return (n + 63) / 64 }

// bundleSections lists the sections of m's browser bundle in the order they
// are written: the shared prefix's tensors, then the binary branch layer by
// layer. Encoder, decoder and BrowserBundleLen all read this one list.
func bundleSections(m *models.Composite) []bundleSection {
	var out []bundleSection
	for _, s := range stateTensors("shared.", m.Shared) {
		out = append(out, bundleSection{name: s.name, t: s.t})
	}
	nn.Walk(m.Binary, func(layer nn.Layer) {
		switch t := layer.(type) {
		case *nn.Sequential, *nn.Residual:
			// containers: children visited separately
		case *binlayer.Conv2D:
			out = append(out, shadowSection(t.Name(), t.Weight.Value, t.Bias.Value))
		case *binlayer.Linear:
			out = append(out, shadowSection(t.Name(), t.Weight.Value, t.Bias.Value))
		case binlayer.PackedLayer:
			alpha, bias, w := t.Weights()
			out = append(out, bundleSection{name: "binary." + t.Name(),
				rows: w.Rows, n: w.N, bias: bias, alpha: alpha, w: w})
		default:
			for _, s := range stateTensors("binary.", layer) {
				out = append(out, bundleSection{name: s.name, t: s.t})
			}
		}
	})
	return out
}

func shadowSection(layer string, weight, bias *tensor.Tensor) bundleSection {
	rows := weight.Dim(0)
	return bundleSection{name: "binary." + layer,
		rows: rows, n: weight.Len() / rows, bias: bias.Data, weight: weight}
}

// headerLen is the encoded size of magic, version and section count.
const headerLen = 12

// BrowserBundleLen returns the exact encoded length of m's browser bundle.
// It depends only on m's architecture and configuration, so a client knows
// from its skeleton (models.BuildClient) how many bytes a valid bundle has
// before it has read one.
func BrowserBundleLen(m *models.Composite) int {
	n := headerLen
	for _, s := range bundleSections(m) {
		n += s.encodedLen()
	}
	return n
}

// EncodeBrowserBundle serializes what the mobile web browser must download
// to run the binary branch: the shared prefix in float32 and the binary
// branch with binary layers bit-packed (sign bits + per-filter alpha +
// float bias). The encoded length is the Table III model-loading payload.
// m must hold float shadow weights (models.Build, a loaded checkpoint); a
// client skeleton is something bundles are decoded into, not encoded from.
func EncodeBrowserBundle(m *models.Composite) ([]byte, error) {
	sections := bundleSections(m)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeHeader(bw, uint32(len(sections))); err != nil {
		return nil, err
	}
	for _, s := range sections {
		var err error
		switch {
		case !s.packed():
			err = writeFloatSection(bw, s.name, s.t)
		case s.weight != nil:
			err = writePackedSection(bw, s.name, s.weight, s.bias)
		default:
			err = fmt.Errorf("%s is already packed", s.name)
		}
		if err != nil {
			return nil, fmt.Errorf("modelio: encode bundle: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writePackedSection serializes a binary layer's weights as sign bits with
// per-output-filter alphas plus the float bias.
func writePackedSection(w io.Writer, name string, weight *tensor.Tensor, bias []float32) error {
	outC := weight.Dim(0)
	k := weight.Len() / outC
	if _, err := w.Write([]byte{kindPacked}); err != nil {
		return err
	}
	if err := writeName(w, name); err != nil {
		return err
	}
	for _, v := range []uint32{uint32(outC), uint32(k)} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	alphas := binlayer.FilterAlphas(weight)
	if err := binary.Write(w, binary.LittleEndian, alphas); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, bias); err != nil {
		return err
	}
	pm := binlayer.NewPackedMatrix(outC, k)
	w2d := weight.Reshape(outC, k)
	for o := 0; o < outC; o++ {
		pm.PackRow(o, w2d.Row(o))
	}
	return binary.Write(w, binary.LittleEndian, pm.Words)
}

// cursor reads little-endian fields off the front of an in-memory bundle.
// Every read is checked against what is left, so nothing a bundle claims
// about its own sizes is trusted.
type cursor []byte

func (c *cursor) take(n int) ([]byte, error) {
	if n > len(*c) {
		return nil, io.ErrUnexpectedEOF
	}
	b := (*c)[:n]
	*c = (*c)[n:]
	return b, nil
}

func (c *cursor) u32() (int, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(b)), nil
}

// sectionHead reads what every section starts with: its kind and its name.
func (c *cursor) sectionHead() (kind byte, name []byte, err error) {
	k, err := c.take(1)
	if err != nil {
		return 0, nil, fmt.Errorf("kind: %w", err)
	}
	n, err := c.take(2)
	if err != nil {
		return 0, nil, fmt.Errorf("name: %w", err)
	}
	if name, err = c.take(int(binary.LittleEndian.Uint16(n))); err != nil {
		return 0, nil, fmt.Errorf("name: %w", err)
	}
	return k[0], name, nil
}

func getFloats(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// DecodeBrowserBundle restores a bundle into a model of the same
// architecture and configuration, and accepts it only whole: every section
// the model expects must arrive exactly once, with the dimensions the model
// has, and nothing may follow the last one. A model left untouched by a
// section would otherwise keep serving whatever weights it was built with.
//
// The model is either kind of build. Into a client skeleton
// (models.BuildClient) a packed section is copied as it is — alphas, bias
// and sign-bit words — and no float weight ever exists. Into float-shadow
// layers (models.Build) the sign bits are expanded to +-alpha, which
// reproduces the original inference exactly: the sign is kept, and the
// alpha a later packing recomputes as the mean of |+-alpha| is that alpha.
//
// On error m may have been partly overwritten.
func DecodeBrowserBundle(data []byte, m *models.Composite) error {
	count, err := readHeader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	c := cursor(data[headerLen:])

	sections := bundleSections(m)
	byName := make(map[string]int, len(sections))
	for i, s := range sections {
		byName[s.name] = i
	}
	filled := make([]bool, len(sections))

	for i := uint32(0); i < count; i++ {
		kind, name, err := c.sectionHead()
		if err != nil {
			return fmt.Errorf("modelio: bundle section %d of %d: %w", i+1, count, err)
		}
		idx, ok := byName[string(name)]
		if !ok {
			return fmt.Errorf("modelio: bundle section %q not in model", name[:min(len(name), 64)])
		}
		s := &sections[idx]
		if filled[idx] {
			return fmt.Errorf("modelio: bundle section %q appears twice", s.name)
		}
		filled[idx] = true
		switch {
		case kind == kindFloat && !s.packed():
			err = decodeFloatSection(&c, s)
		case kind == kindPacked && s.packed():
			err = decodePackedSection(&c, s)
		default:
			err = fmt.Errorf("has kind %d, which is not what the model holds under that name", kind)
		}
		if err != nil {
			return fmt.Errorf("modelio: bundle section %q: %w", s.name, err)
		}
	}
	for i, ok := range filled {
		if !ok {
			return fmt.Errorf("modelio: bundle is missing section %q", sections[i].name)
		}
	}
	if len(c) != 0 {
		return fmt.Errorf("modelio: bundle has %d trailing bytes after its last section", len(c))
	}
	return nil
}

func decodeFloatSection(c *cursor, s *bundleSection) error {
	n, err := c.u32()
	if err != nil {
		return fmt.Errorf("length: %w", err)
	}
	if n != s.t.Len() {
		return fmt.Errorf("has %d values, model wants %d", n, s.t.Len())
	}
	body, err := c.take(4 * n)
	if err != nil {
		return fmt.Errorf("data: %w", err)
	}
	getFloats(s.t.Data, body)
	return nil
}

func decodePackedSection(c *cursor, s *bundleSection) error {
	rows, err := c.u32()
	if err != nil {
		return fmt.Errorf("dims: %w", err)
	}
	n, err := c.u32()
	if err != nil {
		return fmt.Errorf("dims: %w", err)
	}
	if rows != s.rows || n != s.n {
		return fmt.Errorf("is %dx%d, model layer is %dx%d", rows, n, s.rows, s.n)
	}
	// Dimensions are the model's own from here on, so the three reads
	// below are sized by the model, not by the bundle.
	wpr := wordsPerRow(n)
	alphas, err := c.take(4 * rows)
	if err != nil {
		return fmt.Errorf("alphas: %w", err)
	}
	bias, err := c.take(4 * rows)
	if err != nil {
		return fmt.Errorf("bias: %w", err)
	}
	words, err := c.take(8 * rows * wpr)
	if err != nil {
		return fmt.Errorf("sign bits: %w", err)
	}
	getFloats(s.bias, bias)

	if s.w != nil {
		getFloats(s.alpha, alphas)
		for i := range s.w.Words {
			s.w.Words[i] = binary.LittleEndian.Uint64(words[8*i:])
		}
		// Bits past n in a row's last word are padding that packing leaves
		// zero and XnorDot relies on being zero; the float-shadow path
		// never reads them, so neither may this one.
		if tail := uint(n % 64); tail != 0 {
			for o := 0; o < rows; o++ {
				s.w.Words[(o+1)*wpr-1] &= 1<<tail - 1
			}
		}
		return nil
	}
	for o := 0; o < rows; o++ {
		a := math.Float32frombits(binary.LittleEndian.Uint32(alphas[4*o:]))
		row := words[8*wpr*o:] // little-endian words: bit j is bit j%8 of byte j/8
		dst := s.weight.Data[o*n : (o+1)*n]
		for j := range dst {
			if row[j>>3]>>(uint(j)&7)&1 != 0 {
				dst[j] = a
			} else {
				dst[j] = -a
			}
		}
	}
	return nil
}
