package modelio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

func packModel(t testing.TB) *models.Composite {
	t.Helper()
	m, err := models.Build("lenet", models.Config{
		Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.08, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testManifest() PackManifest {
	return PackManifest{
		Arch: "lenet",
		Config: models.Config{
			Classes: 10, InC: 1, InH: 28, InW: 28, WidthScale: 0.08, Seed: 7,
		},
		Tau:   0.8125,
		Codec: "q8",
		Label: "unit-test",
	}
}

// sign appends a fresh digest trailer to raw content; resign replaces an
// existing trailer. Corruption tests use them to separate "bad digest"
// from "bad content".
func sign(content []byte) []byte {
	d := sha256.Sum256(content)
	return append(append([]byte{}, content...), d[:]...)
}

func resign(data []byte) []byte { return sign(data[:len(data)-sha256.Size]) }

func TestPackRoundTrip(t *testing.T) {
	m := packModel(t)
	data, err := EncodePack(testManifest(), m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := OpenPack(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Manifest != testManifest() {
		t.Fatalf("manifest round trip: %+v", p.Manifest)
	}
	if got := len(p.Version()); got != packVersionLen {
		t.Fatalf("version %q has length %d", p.Version(), got)
	}
	if !bytes.Equal(p.Bytes(), data) {
		t.Fatal("Bytes() must return the raw artifact")
	}
	// The packed bundle must be byte-identical to a fresh encoding of the
	// same weights: clients revalidating against the pack's content digest
	// depend on the bundle being a pure function of the weights.
	bundle, err := EncodeBrowserBundle(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Bundle, bundle) {
		t.Fatal("pack bundle differs from EncodeBrowserBundle output")
	}
	// Weights round trip: the restored model must compute bitwise-identical
	// main-branch outputs.
	x := tensor.NewRNG(3).Uniform(-1, 1, 1, 1, 28, 28)
	want := m.ForwardMainRest(m.ForwardShared(x, false), false)
	got := p.Model.ForwardMainRest(p.Model.ForwardShared(x, false), false)
	if !bytes.Equal(float32Bytes(want.Data), float32Bytes(got.Data)) {
		t.Fatal("restored model is not bitwise identical")
	}
}

func float32Bytes(v []float32) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, v)
	return buf.Bytes()
}

func TestPackVersionIsContentAddressed(t *testing.T) {
	m := packModel(t)
	a, err := EncodePack(testManifest(), m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodePack(testManifest(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("pack encoding is not deterministic")
	}
	// Any manifest change — even just the label — mints a new version.
	man := testManifest()
	man.Label = "canary"
	c, err := EncodePack(man, m)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := OpenPack(a)
	pc, errC := OpenPack(c)
	if errC != nil {
		t.Fatal(errC)
	}
	if pa.Version() == pc.Version() {
		t.Fatal("relabeled pack kept the same version")
	}
}

func TestPackTruncated(t *testing.T) {
	data, err := EncodePack(testManifest(), packModel(t))
	if err != nil {
		t.Fatal(err)
	}
	// Cutting anywhere breaks either the envelope (short trailer) or the
	// digest; a cut inside the manifest section specifically must fail too,
	// never half-parse.
	for _, n := range []int{0, 8, 20, 60, len(data) / 2, len(data) - 1} {
		if _, err := OpenPack(data[:n]); err == nil {
			t.Errorf("OpenPack of %d/%d bytes succeeded", n, len(data))
		}
	}
	// A short pack whose digest was re-signed after truncating mid-section
	// is structurally corrupt, not digest-corrupt: the section walker must
	// report truncation.
	cut := sign(data[:60])
	if _, err := OpenPack(cut); !errors.Is(err, ErrPackTruncated) {
		t.Fatalf("re-signed truncation: got %v, want ErrPackTruncated", err)
	}
}

func TestPackDigestMismatch(t *testing.T) {
	data, err := EncodePack(testManifest(), packModel(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{12, len(data) / 2, len(data) - sha256.Size - 1} {
		bad := append([]byte{}, data...)
		bad[pos] ^= 0x40
		if _, err := OpenPack(bad); !errors.Is(err, ErrPackDigest) {
			t.Errorf("flip at %d: got %v, want ErrPackDigest", pos, err)
		}
	}
	// Flipping a trailer byte corrupts the recorded digest itself.
	bad := append([]byte{}, data...)
	bad[len(bad)-1] ^= 0x01
	if _, err := OpenPack(bad); !errors.Is(err, ErrPackDigest) {
		t.Fatalf("trailer flip: got %v, want ErrPackDigest", err)
	}
}

// ReadPackManifest returns what OpenPack opens — the same manifest and
// version — without rebuilding the model, and refuses exactly the packs
// OpenPack refuses, with the same errors.
func TestReadPackManifestMatchesOpenPack(t *testing.T) {
	data, err := EncodePack(testManifest(), packModel(t))
	if err != nil {
		t.Fatal(err)
	}
	p, err := OpenPack(data)
	if err != nil {
		t.Fatal(err)
	}
	man, version, err := ReadPackManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if man != p.Manifest || version != p.Version() {
		t.Fatalf("ReadPackManifest: %+v %s, OpenPack: %+v %s", man, version, p.Manifest, p.Version())
	}
	tampered := append([]byte{}, data...)
	tampered[len(data)/2] ^= 0x40
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"truncated envelope", data[:20], ErrPackTruncated},
		{"re-signed truncation", sign(data[:60]), ErrPackTruncated},
		{"tampered", tampered, ErrPackDigest},
	} {
		if _, _, err := ReadPackManifest(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: ReadPackManifest got %v, want %v", tc.name, err, tc.want)
		}
		if _, err := OpenPack(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: OpenPack got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestPackUnknownSectionSkipped pins forward compatibility: a pack that
// carries a section this build does not know (written by a future writer)
// must still open, with the unknown payload ignored.
func TestPackUnknownSectionSkipped(t *testing.T) {
	data, err := EncodePack(testManifest(), packModel(t))
	if err != nil {
		t.Fatal(err)
	}
	content := data[:len(data)-sha256.Size]
	var extra bytes.Buffer
	if err := writeName(&extra, "calibration/v2"); err != nil {
		t.Fatal(err)
	}
	payload := []byte("future bytes an old reader must skip")
	binary.Write(&extra, binary.LittleEndian, uint64(len(payload)))
	extra.Write(payload)

	doctored := append(append([]byte{}, content...), extra.Bytes()...)
	binary.LittleEndian.PutUint32(doctored[8:12], 4) // section count 3 -> 4
	doctored = sign(doctored)

	p, err := OpenPack(doctored)
	if err != nil {
		t.Fatalf("pack with unknown section failed to open: %v", err)
	}
	if p.Manifest != testManifest() {
		t.Fatalf("manifest corrupted by unknown section: %+v", p.Manifest)
	}
	secs, err := PackSections(doctored)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 4 || secs[3].Name != "calibration/v2" || secs[3].Bytes != len(payload) {
		t.Fatalf("PackSections = %+v", secs)
	}
}

func TestPackSectionCountLies(t *testing.T) {
	data, err := EncodePack(testManifest(), packModel(t))
	if err != nil {
		t.Fatal(err)
	}
	// Claiming more sections than the body holds must be truncation, and
	// claiming fewer must be rejected as trailing garbage — both re-signed
	// so only the structure is wrong.
	more := append([]byte{}, data...)
	binary.LittleEndian.PutUint32(more[8:12], 5)
	if _, err := OpenPack(resign(more)); !errors.Is(err, ErrPackTruncated) {
		t.Fatalf("overcounted sections: got %v, want ErrPackTruncated", err)
	}
	fewer := append([]byte{}, data...)
	binary.LittleEndian.PutUint32(fewer[8:12], 2)
	if _, err := OpenPack(resign(fewer)); err == nil {
		t.Fatal("undercounted sections accepted")
	}
}

func TestCompositeDigestStable(t *testing.T) {
	m := packModel(t)
	d1, err := CompositeDigest(m)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := CompositeDigest(m)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("digest of unchanged weights moved")
	}
	if len(VersionFromDigest(d1)) != packVersionLen {
		t.Fatalf("version %q", VersionFromDigest(d1))
	}
	m2 := packModel(t)
	m2.Binary.Params()[0].Value.Data[0] += 0.5
	d3, err := CompositeDigest(m2)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("digest blind to a weight change")
	}
}

// TestPackOverheadBudget bounds the framing cost of the deploy artifact:
// a pack may cost at most 4KB over its checkpoint + bundle payloads. The
// CI bench-smoke job runs this so the single-file format never silently
// grows per-deploy bytes.
func TestPackOverheadBudget(t *testing.T) {
	m := packModel(t)
	data, err := EncodePack(testManifest(), m)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := SaveComposite(&ckpt, m); err != nil {
		t.Fatal(err)
	}
	bundle, err := EncodeBrowserBundle(m)
	if err != nil {
		t.Fatal(err)
	}
	overhead := len(data) - ckpt.Len() - len(bundle)
	if overhead < 0 || overhead > 4096 {
		t.Fatalf("pack overhead %d bytes (pack %d, checkpoint %d, bundle %d)",
			overhead, len(data), ckpt.Len(), len(bundle))
	}
}

// FuzzOpenPack feeds arbitrary bytes (seeded with a valid pack and a few
// structural mutants) to the opener: it must never panic or allocate
// absurdly, only return errors. Wired into the CI fuzz smoke job.
func FuzzOpenPack(f *testing.F) {
	m, err := models.Build("lenet", models.Config{
		Classes: 4, InC: 1, InH: 12, InW: 12, WidthScale: 0.05, Seed: 7,
	})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := EncodePack(PackManifest{
		Arch: "lenet",
		Config: models.Config{
			Classes: 4, InC: 1, InH: 12, InW: 12, WidthScale: 0.05, Seed: 7,
		},
	}, m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(sign(valid[:80]))
	f.Add([]byte{})
	f.Add(sign(append([]byte{}, valid[:40]...)))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := OpenPack(data)
		if err != nil {
			return
		}
		// Whatever opened must be self-consistent.
		if p.Model == nil || len(p.Bundle) == 0 {
			t.Fatal("OpenPack returned an incomplete pack without error")
		}
		if len(p.Version()) != packVersionLen {
			t.Fatalf("version %q", p.Version())
		}
	})
}
