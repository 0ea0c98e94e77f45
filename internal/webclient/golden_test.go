package webclient

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"lcrs/internal/edge"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_client.json from this build")

// goldenPath is the client answer corpus: what a real Client, loaded from a
// real edge's bundle, computes for seeded frames on seeded models.
var goldenPath = filepath.Join("testdata", "golden_client.json")

// goldenCases are the corpus's models: random-init, so their XNOR dots are
// often exactly 0 and every tie the engine resolves is pinned too.
var goldenCases = []struct {
	arch string
	cfg  models.Config
}{
	{"alexnet", models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.25, Seed: 1}},
	{"lenet", models.Config{Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.12, Seed: 1}},
}

const goldenFrames = 64

// goldenModel is one model's part of the corpus. Taus are the quartiles of
// the model's own frame entropies, so each exit decision column splits the
// frames instead of saying all-exit or all-offload.
type goldenModel struct {
	Arch   string        `json:"arch"`
	Taus   [3]float64    `json:"taus"`
	Frames []goldenFrame `json:"frames,omitempty"`
}

// goldenFrame is what the client made of one frame. Bits are hex: float32
// logits, the float64 entropy, and a sha256 prefix over conv1's output.
type goldenFrame struct {
	Conv1      string   `json:"conv1"`
	Logits     []string `json:"logits"`
	Entropy    string   `json:"entropy"`
	BinaryPred int      `json:"binary_pred"`
	Exits      [3]bool  `json:"exits"`     // Exited at Taus[k]
	MainPred   int      `json:"main_pred"` // the edge's answer at tau 0
}

// TestGoldenClientCorpus checks every bit the browser half computes — conv1,
// the packed branch's logits, the entropy, the exit decisions — and the
// edge's main-branch answer to the client's frame against the checked-in
// corpus, so a kernel change that moves any bit on any GOARCH fails here.
// go test -run GoldenClientCorpus -update rewrites the file.
func TestGoldenClientCorpus(t *testing.T) {
	var got bytes.Buffer
	got.WriteString("[\n")
	for i, tc := range goldenCases {
		gm := goldenAnswers(t, tc.arch, tc.cfg)
		head, err := json.Marshal(goldenModel{Arch: gm.Arch, Taus: gm.Taus})
		if err != nil {
			t.Fatal(err)
		}
		// One frame per line, so a diff names the frames that moved.
		fmt.Fprintf(&got, "%s,\n \"frames\": [\n", head[:len(head)-1])
		for j, f := range gm.Frames {
			line, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			got.WriteString("  ")
			got.Write(line)
			if j < len(gm.Frames)-1 {
				got.WriteByte(',')
			}
			got.WriteByte('\n')
		}
		got.WriteString(" ]}")
		if i < len(goldenCases)-1 {
			got.WriteByte(',')
		}
		got.WriteByte('\n')
	}
	got.WriteString("]\n")

	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	var gotModels, wantModels []goldenModel
	if err := json.Unmarshal(got.Bytes(), &gotModels); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantModels); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(gotModels) != len(wantModels) {
		t.Fatalf("%d models, %s has %d", len(gotModels), goldenPath, len(wantModels))
	}
	for i, g := range gotModels {
		w := wantModels[i]
		if g.Arch != w.Arch || g.Taus != w.Taus || len(g.Frames) != len(w.Frames) {
			t.Errorf("%s: arch %s taus %v over %d frames; the corpus has %s %v over %d",
				g.Arch, g.Arch, g.Taus, len(g.Frames), w.Arch, w.Taus, len(w.Frames))
			continue
		}
		for j := range g.Frames {
			gj, _ := json.Marshal(g.Frames[j])
			wj, _ := json.Marshal(w.Frames[j])
			if !bytes.Equal(gj, wj) {
				t.Errorf("%s frame %d:\n got %s\nwant %s", g.Arch, j, gj, wj)
			}
		}
	}
	t.Fatalf("client answers differ from %s (go test -run GoldenClientCorpus -update rewrites it)", goldenPath)
}

// goldenAnswers serves a seeded arch from an in-process edge, loads it into
// a Client over HTTP and records the client's answers to goldenFrames
// seeded frames.
func goldenAnswers(t *testing.T, arch string, cfg models.Config) goldenModel {
	t.Helper()
	m, err := models.Build(arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := edge.New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Register(arch, m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c, err := New(srv.URL, WithHTTPClient(srv.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.LoadModel(ctx, arch, arch, cfg, 0); err != nil {
		t.Fatal(err)
	}
	recognize := func(x *tensor.Tensor) Result {
		t.Helper()
		res, err := c.Recognize(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	g := tensor.NewRNG(cfg.Seed + 100)
	xs := make([]*tensor.Tensor, goldenFrames)
	gm := goldenModel{Arch: arch, Frames: make([]goldenFrame, goldenFrames)}
	entropies := make([]float64, goldenFrames)
	for i := range xs {
		// Each frame has its own brightness and contrast, which spreads the
		// entropies a random-init branch gives.
		lo := 2*g.Float32() - 1
		xs[i] = g.Uniform(lo, lo+2*g.Float32(), cfg.InShape()...)
		f := &gm.Frames[i]

		// The client's own engine, layer by layer, for the bits Result
		// does not carry.
		c.model.ResetScratch()
		shared := c.model.ForwardShared(xs[i].Reshape(append([]int{1}, cfg.InShape()...)...), false)
		f.Conv1 = floatsDigest(shared.Data)
		logits := c.model.ForwardBinary(shared, false)
		for _, v := range logits.Data {
			f.Logits = append(f.Logits, fmt.Sprintf("%08x", math.Float32bits(v)))
		}
		top := tensor.ArgmaxRow(logits.Row(0))

		res := recognize(xs[i]) // tau 0: every frame goes to the edge
		if res.Exited || res.BinaryPred != top {
			t.Fatalf("%s frame %d at tau 0: exited %v, binary pred %d; the branch's top-1 is %d",
				arch, i, res.Exited, res.BinaryPred, top)
		}
		f.Entropy = fmt.Sprintf("%016x", math.Float64bits(res.Entropy))
		f.BinaryPred, f.MainPred = res.BinaryPred, res.Pred
		entropies[i] = res.Entropy
	}

	sort.Float64s(entropies)
	for k := range gm.Taus {
		gm.Taus[k] = entropies[(k+1)*goldenFrames/4]
		if err := c.SetTau(gm.Taus[k]); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			f := &gm.Frames[i]
			res := recognize(x)
			want := f.MainPred
			if res.Exited {
				want = f.BinaryPred
			}
			if res.Pred != want {
				t.Fatalf("%s frame %d at tau %v: exited %v with pred %d, want %d",
					arch, i, gm.Taus[k], res.Exited, res.Pred, want)
			}
			f.Exits[k] = res.Exited
		}
	}
	return gm
}

// floatsDigest is the first 8 bytes of the sha256 of vs' little-endian
// float32 bits, in hex.
func floatsDigest(vs []float32) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
