package modelio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"lcrs/internal/models"
)

// Versioned model pack — the one on-disk model artifact of the
// collaborative system: lcrs-train writes it and every command that loads
// a trained model reads it. A pack carries the full main-branch weights
// the edge serves from, the precomputed browser bundle web clients
// download, the screened exit threshold, and the preferred offload codec,
// all in ONE file whose content digest names the version. One file means
// one artifact to rsync, one digest to compare, one ETag to revalidate
// against — the same single-packed-file discipline that htpack applies to
// static web assets. One digest also means one version name: a pack's
// version is a pure function of its bytes.
//
// Layout (little-endian):
//
//	magic    uint32  "LCPK"
//	version  uint32  format version (1)
//	count    uint32  section count
//	sections count times:
//	    name     uint16 length + bytes
//	    length   uint64 payload length
//	    payload  bytes
//	digest   [32]byte sha256 over every preceding byte
//
// Sections are self-delimiting, so a reader skips names it does not know —
// a pack written by a newer build (say, with a per-class calibration
// section) still opens on an old edge (forward compatibility; the digest
// still covers the unknown bytes). The current writer emits "manifest"
// (JSON PackManifest), "checkpoint" (SaveComposite bytes) and "bundle"
// (EncodeBrowserBundle bytes), in that order.
//
// The version string of a pack is the first 12 hex digits of its digest:
// content-addressed, so identical weights+manifest always name the same
// version, and any retrain — however small — names a new one.

const (
	packMagic   = uint32(0x4C43504B) // "LCPK"
	packVersion = uint32(1)

	packSecManifest   = "manifest"
	packSecCheckpoint = "checkpoint"
	packSecBundle     = "bundle"

	// packMaxSections bounds the section count so a corrupt header cannot
	// drive a huge allocation; real packs carry a handful.
	packMaxSections = 1 << 10
	// packVersionLen is the length of the hex version string derived from
	// the digest (12 hex digits = 48 bits; collisions are not a concern at
	// fleet scale, and the full digest is always available for paranoia).
	packVersionLen = 12
)

// Pack open errors, distinguishable with errors.Is. ErrPackTruncated
// covers every short read (a partial rsync, a cut-off download);
// ErrPackDigest means the bytes are complete but not the bytes that were
// written (bit rot, tampering, a concurrent overwrite).
var (
	ErrPackTruncated = errors.New("modelio: pack truncated")
	ErrPackDigest    = errors.New("modelio: pack digest mismatch")
)

// PackManifest is the deploy metadata of a pack: everything a serving
// process needs to host the model that is not weights.
type PackManifest struct {
	// Arch and Config reconstruct the architecture before weights load.
	Arch   string        `json:"arch"`
	Config models.Config `json:"config"`
	// Tau is the screened exit threshold shipped with this version; an
	// edge tau controller adopts it as its seed, so a retuned threshold
	// deploys with the weights it was tuned for. Zero means unscreened.
	Tau float64 `json:"tau,omitempty"`
	// Codec names the offload wire codec clients of this version should
	// prefer ("q8", "f16", ...); empty means raw. Recorded here so a codec
	// change is a versioned deploy, A/B-able like any other.
	Codec string `json:"codec,omitempty"`
	// Label is a free-form deploy annotation ("canary", "retrain-2026w31");
	// it participates in the digest, so relabeling mints a new version.
	Label string `json:"label,omitempty"`
}

// ModelPack is an opened, digest-verified pack.
type ModelPack struct {
	Manifest PackManifest
	// Model carries the full weights (shared prefix + main rest + binary
	// branch), rebuilt from the manifest and the checkpoint section.
	Model *models.Composite
	// Bundle is the precomputed browser bundle, byte-for-byte what
	// EncodeBrowserBundle produced at pack time — served to web clients
	// without re-encoding.
	Bundle []byte

	digest [sha256.Size]byte
	raw    []byte
}

// Version is the content-addressed version string: the first 12 hex
// digits of the pack digest.
func (p *ModelPack) Version() string { return hex.EncodeToString(p.digest[:])[:packVersionLen] }

// DigestHex is the full sha256 content digest in hex.
func (p *ModelPack) DigestHex() string { return hex.EncodeToString(p.digest[:]) }

// Bytes returns the raw pack artifact, suitable for serving or rewriting
// to disk. Callers must not mutate it.
func (p *ModelPack) Bytes() []byte { return p.raw }

// EncodePack serializes m and its deploy metadata into a single versioned
// pack artifact.
func EncodePack(man PackManifest, m *models.Composite) ([]byte, error) {
	if man.Arch == "" {
		return nil, errors.New("modelio: pack manifest needs an arch")
	}
	manifest, err := json.Marshal(man)
	if err != nil {
		return nil, fmt.Errorf("modelio: marshal pack manifest: %w", err)
	}
	var ckpt bytes.Buffer
	if err := SaveComposite(&ckpt, m); err != nil {
		return nil, fmt.Errorf("modelio: pack checkpoint: %w", err)
	}
	bundle, err := EncodeBrowserBundle(m)
	if err != nil {
		return nil, fmt.Errorf("modelio: pack bundle: %w", err)
	}

	var buf bytes.Buffer
	for _, v := range []uint32{packMagic, packVersion, 3} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	sections := []struct {
		name    string
		payload []byte
	}{
		{packSecManifest, manifest},
		{packSecCheckpoint, ckpt.Bytes()},
		{packSecBundle, bundle},
	}
	for _, s := range sections {
		if err := writeName(&buf, s.name); err != nil {
			return nil, fmt.Errorf("modelio: pack section %s: %w", s.name, err)
		}
		binary.Write(&buf, binary.LittleEndian, uint64(len(s.payload)))
		buf.Write(s.payload)
	}
	digest := sha256.Sum256(buf.Bytes())
	buf.Write(digest[:])
	return buf.Bytes(), nil
}

// PackSection describes one section of a pack for inspection tools.
type PackSection struct {
	Name  string
	Bytes int
}

// parsePack validates the envelope (magic, format version, digest) and
// returns the concatenated section region. It is the shared front half of
// OpenPack and PackSections.
func parsePack(data []byte) (body []byte, count uint32, digest [sha256.Size]byte, err error) {
	const headerLen = 12
	if len(data) < headerLen+sha256.Size {
		return nil, 0, digest, ErrPackTruncated
	}
	if got := binary.LittleEndian.Uint32(data[0:4]); got != packMagic {
		return nil, 0, digest, fmt.Errorf("modelio: bad pack magic 0x%08x", got)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != packVersion {
		return nil, 0, digest, fmt.Errorf("modelio: unsupported pack version %d", v)
	}
	count = binary.LittleEndian.Uint32(data[8:headerLen])
	if count > packMaxSections {
		return nil, 0, digest, fmt.Errorf("modelio: pack claims %d sections", count)
	}
	content, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	digest = sha256.Sum256(content)
	if !bytes.Equal(digest[:], trailer) {
		return nil, 0, digest, ErrPackDigest
	}
	return content[headerLen:], count, digest, nil
}

// walkPackSections iterates the section region, calling fn for each
// (name, payload) pair. Bounds are checked before every slice, so corrupt
// lengths surface as ErrPackTruncated, never a panic (FuzzOpenPack pins
// this).
func walkPackSections(body []byte, count uint32, fn func(name string, payload []byte) error) error {
	off := 0
	for i := uint32(0); i < count; i++ {
		if off+2 > len(body) {
			return ErrPackTruncated
		}
		nameLen := int(binary.LittleEndian.Uint16(body[off : off+2]))
		off += 2
		if off+nameLen > len(body) {
			return ErrPackTruncated
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		if off+8 > len(body) {
			return ErrPackTruncated
		}
		payloadLen := binary.LittleEndian.Uint64(body[off : off+8])
		off += 8
		if payloadLen > uint64(len(body)-off) {
			return ErrPackTruncated
		}
		if err := fn(name, body[off:off+int(payloadLen)]); err != nil {
			return err
		}
		off += int(payloadLen)
	}
	if off != len(body) {
		return fmt.Errorf("modelio: pack has %d trailing bytes after last section", len(body)-off)
	}
	return nil
}

// PackSections lists a pack's sections (names and sizes) without decoding
// payloads — the inspection view. The digest is still verified.
func PackSections(data []byte) ([]PackSection, error) {
	body, count, _, err := parsePack(data)
	if err != nil {
		return nil, err
	}
	var out []PackSection
	err = walkPackSections(body, count, func(name string, payload []byte) error {
		out = append(out, PackSection{Name: name, Bytes: len(payload)})
		return nil
	})
	return out, err
}

// readPack checks the envelope and digest, walks the sections and parses
// the manifest: the one reader ReadPackManifest and OpenPack share. It
// returns the pack with every field but Model set, and the checkpoint
// section undecoded. Unknown sections are skipped, so packs written by
// newer builds still open; a pack without its manifest, checkpoint or
// bundle is refused.
func readPack(data []byte) (*ModelPack, []byte, error) {
	body, count, digest, err := parsePack(data)
	if err != nil {
		return nil, nil, err
	}
	var manifest, ckpt, bundle []byte
	err = walkPackSections(body, count, func(name string, payload []byte) error {
		switch name {
		case packSecManifest:
			manifest = payload
		case packSecCheckpoint:
			ckpt = payload
		case packSecBundle:
			bundle = payload
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if manifest == nil {
		return nil, nil, errors.New("modelio: pack has no manifest section")
	}
	if ckpt == nil {
		return nil, nil, errors.New("modelio: pack has no checkpoint section")
	}
	if bundle == nil {
		return nil, nil, errors.New("modelio: pack has no bundle section")
	}
	p := &ModelPack{Bundle: bundle, digest: digest, raw: data}
	if err := json.Unmarshal(manifest, &p.Manifest); err != nil {
		return nil, nil, fmt.Errorf("modelio: pack manifest: %w", err)
	}
	return p, ckpt, nil
}

// ReadPackManifest verifies a pack (digest checked, every section walked)
// and returns its manifest and version without rebuilding the model or
// decoding a weight — what a web client needs from a pack: the
// architecture, configuration and tau to fetch the edge's bundle with.
func ReadPackManifest(data []byte) (man PackManifest, version string, err error) {
	p, _, err := readPack(data)
	if err != nil {
		return PackManifest{}, "", err
	}
	return p.Manifest, p.Version(), nil
}

// OpenPack verifies and decodes a pack: what ReadPackManifest reads, plus
// the architecture rebuilt from the manifest, its weights loaded from the
// checkpoint section and the bundle retained.
func OpenPack(data []byte) (*ModelPack, error) {
	p, ckpt, err := readPack(data)
	if err != nil {
		return nil, err
	}
	m, err := models.Build(p.Manifest.Arch, p.Manifest.Config)
	if err != nil {
		return nil, fmt.Errorf("modelio: pack rebuild %s: %w", p.Manifest.Arch, err)
	}
	if err := LoadComposite(bytes.NewReader(ckpt), m); err != nil {
		return nil, fmt.Errorf("modelio: pack checkpoint: %w", err)
	}
	p.Model = m
	return p, nil
}

// CompositeDigest is the content digest of a model's full serialized
// state — the same bytes a pack's checkpoint section carries. The edge
// registry uses it to content-address models registered in-process (no
// pack file): the same weights always map to the same in-process version.
// A pack's Version hashes the whole artifact (manifest and bundle
// included), so it is a different — but equally deterministic — name.
func CompositeDigest(m *models.Composite) ([sha256.Size]byte, error) {
	h := sha256.New()
	if err := SaveComposite(h, m); err != nil {
		return [sha256.Size]byte{}, err
	}
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}

// VersionFromDigest derives the short content-addressed version string
// used by the edge registry from a full digest.
func VersionFromDigest(d [sha256.Size]byte) string {
	return hex.EncodeToString(d[:])[:packVersionLen]
}
