package modelio

import (
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	binlayer "lcrs/internal/binary"
	"lcrs/internal/models"
	"lcrs/internal/tensor"
)

var narrowCfg = models.Config{Classes: 10, InC: 3, InH: 32, InW: 32, WidthScale: 0.1, Seed: 5}

// trainedLike builds arch and moves every bias, batch-norm scale, shift and
// running statistic off its initial 0/1, so that a decoder that skipped or
// misplaced one of them would change the logits.
func trainedLike(t testing.TB, arch string, cfg models.Config) *models.Composite {
	t.Helper()
	m, err := models.Build(arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(cfg.Seed + 100)
	for _, s := range compositeState(m) {
		switch {
		case strings.HasSuffix(s.name, ".weight"):
		case strings.HasSuffix(s.name, ".running_var"):
			copy(s.t.Data, g.Uniform(0.5, 1.5, s.t.Len()).Data)
		default:
			copy(s.t.Data, g.Uniform(-0.5, 0.5, s.t.Len()).Data)
		}
	}
	return m
}

func clientFrom(t testing.TB, arch string, cfg models.Config, bundle []byte) *models.Composite {
	t.Helper()
	c, err := models.BuildClient(arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeBrowserBundle(bundle, c); err != nil {
		t.Fatalf("%s: decode into client skeleton: %v", arch, err)
	}
	return c
}

func bitsEqual(a, b *tensor.Tensor) bool {
	return a.SameShape(b) && floatBitsEqual(a.Data, b.Data)
}

func floatBitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float32bits(v) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// The client load path (skeleton + direct packed decode), the path it
// replaced (float-shadow model + decode to +-alpha + PackBranch) and the
// served model packed as it stands must be the same function, bit for bit.
func TestClientDecodeMatchesShadowPathBitwise(t *testing.T) {
	for _, arch := range models.Names() {
		orig := trainedLike(t, arch, narrowCfg)
		bundle, err := EncodeBrowserBundle(orig)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(bundle), BrowserBundleLen(orig); got != want {
			t.Fatalf("%s: bundle is %d bytes, BrowserBundleLen says %d", arch, got, want)
		}

		client := clientFrom(t, arch, narrowCfg, bundle)
		if got, want := BrowserBundleLen(client), len(bundle); got != want {
			t.Fatalf("%s: skeleton predicts a %d-byte bundle, it is %d", arch, got, want)
		}
		if client.MainRest != nil {
			t.Fatalf("%s: client build carries a main branch", arch)
		}
		shadowCfg := narrowCfg
		shadowCfg.Seed = 6
		shadow, err := models.Build(arch, shadowCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeBrowserBundle(bundle, shadow); err != nil {
			t.Fatalf("%s: decode into float-shadow model: %v", arch, err)
		}

		// The stored alpha is the alpha packing recomputes, and the stored
		// words are the words it re-packs: layer by layer, not only in sum.
		for i, l := range orig.Binary.Layers {
			var want binlayer.PackedLayer
			switch tl := l.(type) {
			case *binlayer.Conv2D:
				want.Conv = binlayer.PackConv2D(tl)
			case *binlayer.Linear:
				want.Linear = binlayer.PackLinear(tl)
			default:
				continue
			}
			got, ok := client.Binary.Layers[i].(binlayer.PackedLayer)
			if !ok {
				t.Fatalf("%s: client layer %d is %T, want a packed layer", arch, i, client.Binary.Layers[i])
			}
			wa, wb, ww := want.Weights()
			ga, gb, gw := got.Weights()
			if !floatBitsEqual(wa, ga) || !floatBitsEqual(wb, gb) {
				t.Fatalf("%s: %s alpha/bias differ from re-packing", arch, got.Name())
			}
			if len(ww.Words) != len(gw.Words) {
				t.Fatalf("%s: %s has %d words, re-packing gives %d", arch, got.Name(), len(gw.Words), len(ww.Words))
			}
			for j := range ww.Words {
				if ww.Words[j] != gw.Words[j] {
					t.Fatalf("%s: %s word %d differs from re-packing", arch, got.Name(), j)
				}
			}
		}

		a := binlayer.PackBranch(client.Binary)
		b := binlayer.PackBranch(shadow.Binary)
		c := binlayer.PackBranch(orig.Binary)
		g := tensor.NewRNG(9)
		for _, n := range []int{1, 3} {
			x := g.Uniform(-1, 1, n, 3, 32, 32)
			sa, sb, sc := client.ForwardShared(x, false), shadow.ForwardShared(x, false), orig.ForwardShared(x, false)
			la, lb, lc := a.Forward(sa), b.Forward(sb), c.Forward(sc)
			if !bitsEqual(la, lc) {
				t.Fatalf("%s batch %d: client skeleton path differs from the served model", arch, n)
			}
			if !bitsEqual(lb, lc) {
				t.Fatalf("%s batch %d: float-shadow path differs from the served model", arch, n)
			}
		}
	}
}

// A client skeleton is decoded into, never encoded from.
func TestEncodeRejectsClientSkeleton(t *testing.T) {
	c, err := models.BuildClient("lenet", narrowCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeBrowserBundle(c); err == nil || !strings.Contains(err.Error(), "binary.bconv1") {
		t.Fatalf("encoding a client skeleton: %v, want an error naming its first packed layer", err)
	}
}

type corruptBundle struct {
	name string
	data []byte
	want string // what the error must say: the offending section where there is one
}

// corruptBundles derives malformed bundles from a valid one for m. Each
// breaks one rule of the format; together they are the strict decoder's
// table test and the fuzz target's seed corpus.
func corruptBundles(valid []byte, m *models.Composite) []corruptBundle {
	sections := bundleSections(m)
	offs := make([]int, len(sections)+1) // offs[i] = where section i starts
	offs[0] = headerLen
	for i := range sections {
		offs[i+1] = offs[i] + sections[i].encodedLen()
	}
	withCount := func(b []byte, n int) []byte {
		binary.LittleEndian.PutUint32(b[8:], uint32(n))
		return b
	}
	clone := func() []byte { return append([]byte(nil), valid...) }
	// body(i) is where section i's fields start, after kind and name.
	body := func(i int) int { return offs[i] + 3 + len(sections[i].name) }
	firstPacked, firstFloat := -1, -1
	for i := range sections {
		if sections[i].packed() && firstPacked < 0 {
			firstPacked = i
		}
		if !sections[i].packed() && firstFloat < 0 {
			firstFloat = i
		}
	}
	last := len(sections) - 1

	dup := append(clone()[:offs[1]], valid[offs[0]:offs[1]]...) // section 0 where section 1 belongs
	dup = append(dup, valid[offs[2]:]...)
	renamed := clone()
	renamed[offs[0]+3] ^= 0x20 // first letter of section 0's name
	dims := clone()
	binary.LittleEndian.PutUint32(dims[body(firstPacked):], uint32(sections[firstPacked].rows+1))
	count := clone()
	binary.LittleEndian.PutUint32(count[body(firstFloat):], uint32(sections[firstFloat].t.Len()-1))
	kind := clone()
	kind[offs[firstFloat]] = kindPacked

	return []corruptBundle{
		{"header claims zero sections", withCount(clone()[:headerLen], 0), sections[0].name},
		{"zero sections, body still there", withCount(clone(), 0), sections[0].name},
		{"last section omitted", withCount(clone()[:offs[last]], last), sections[last].name},
		{"first section omitted", withCount(append(clone()[:headerLen], valid[offs[1]:]...), last), sections[0].name},
		{"count one short", withCount(clone(), last), sections[last].name},
		{"count one over", withCount(clone(), len(sections)+1), "unexpected EOF"},
		{"section repeated", dup, sections[0].name},
		{"unknown name", renamed, "not in model"},
		{"wrong packed dims", dims, sections[firstPacked].name},
		{"wrong float length", count, sections[firstFloat].name},
		{"kind does not match", kind, sections[firstFloat].name},
		{"trailing garbage", append(clone(), 0xde, 0xad), "trailing"},
		{"cut short", clone()[:len(valid)-5], sections[last].name},
	}
}

// A bundle is installed whole or refused: at the parent of this change a
// header claiming zero sections, an omitted section and a repeated one all
// decoded "successfully" and left the model's initial weights serving.
func TestDecodeBundleIsStrict(t *testing.T) {
	orig := trainedLike(t, "lenet", narrowCfg)
	valid, err := EncodeBrowserBundle(orig)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range corruptBundles(valid, orig) {
		for _, build := range []struct {
			kind string
			fn   func(string, models.Config) (*models.Composite, error)
		}{{"client skeleton", models.BuildClient}, {"float-shadow model", models.Build}} {
			m, err := build.fn("lenet", narrowCfg)
			if err != nil {
				t.Fatal(err)
			}
			err = DecodeBrowserBundle(tc.data, m)
			if err == nil {
				t.Errorf("%s into a %s: decoded without error", tc.name, build.kind)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s into a %s: error %q does not mention %q", tc.name, build.kind, err, tc.want)
			}
		}
	}
}

// Sign-bit rows are padded to whole words. The padding is zero in every
// bundle the encoder writes, and XnorDot counts on it; the float-shadow path
// never looks at it, so the direct path must not let it through either.
func TestDecodeClearsPaddingBits(t *testing.T) {
	orig := trainedLike(t, "lenet", narrowCfg)
	valid, err := EncodeBrowserBundle(orig)
	if err != nil {
		t.Fatal(err)
	}
	want := clientFrom(t, "lenet", narrowCfg, valid)

	dirty := append([]byte(nil), valid...)
	off := headerLen
	for _, s := range bundleSections(orig) {
		if s.packed() && s.n%64 != 0 {
			wpr := wordsPerRow(s.n)
			words := off + 3 + len(s.name) + 8 + 8*s.rows
			for o := 0; o < s.rows; o++ {
				dirty[words+8*((o+1)*wpr)-1] |= 0x80 // top bit of the row's last word
			}
		}
		off += s.encodedLen()
	}
	got := clientFrom(t, "lenet", narrowCfg, dirty)

	x := tensor.NewRNG(3).Uniform(-1, 1, 2, 3, 32, 32)
	lw := binlayer.PackBranch(want.Binary).Forward(want.ForwardShared(x, false))
	lg := binlayer.PackBranch(got.Binary).Forward(got.ForwardShared(x, false))
	if !bitsEqual(lw, lg) {
		t.Fatal("padding bits in a bundle's sign rows changed the client's logits")
	}
}

// decodeAllocBytes reports how much the decode of data into m allocated.
func decodeAllocBytes(data []byte, m *models.Composite) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := DecodeBrowserBundle(data, m)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// decodeAllocBudget is what a decode may allocate whatever the bundle
// claims about itself: the section list, the name index and an error.
func decodeAllocBudget(m *models.Composite) uint64 {
	return 16<<10 + 512*uint64(len(bundleSections(m)))
}

// FuzzDecodeBrowserBundle feeds arbitrary bytes to the decoder against both
// kinds of target. It must never panic, must not allocate more than the
// model's own section list costs whatever sizes the bytes claim, must give
// the two targets the same verdict, and may accept only a bundle of exactly
// the length the skeleton fixes. Wired into the CI fuzz smoke job.
func FuzzDecodeBrowserBundle(f *testing.F) {
	cfg := models.Config{Classes: 4, InC: 1, InH: 12, InW: 12, WidthScale: 0.05, Seed: 7}
	archs := models.Names()
	clients := make([]*models.Composite, len(archs))
	shadows := make([]*models.Composite, len(archs))
	for i, arch := range archs {
		orig := trainedLike(f, arch, cfg)
		valid, err := EncodeBrowserBundle(orig)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), valid)
		if arch == "lenet" {
			for _, tc := range corruptBundles(valid, orig) {
				f.Add(uint8(i), tc.data)
			}
		}
		if clients[i], err = models.BuildClient(arch, cfg); err != nil {
			f.Fatal(err)
		}
		if shadows[i], err = models.Build(arch, cfg); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		i := int(which) % len(archs)
		client, shadow := clients[i], shadows[i]
		allocated, errClient := decodeAllocBytes(data, client)
		if budget := decodeAllocBudget(client); allocated > budget {
			t.Fatalf("%s: decoding %d bytes allocated %d, budget %d", archs[i], len(data), allocated, budget)
		}
		errShadow := DecodeBrowserBundle(data, shadow)
		if (errClient == nil) != (errShadow == nil) {
			t.Fatalf("%s: client skeleton says %v, float-shadow model says %v", archs[i], errClient, errShadow)
		}
		if errClient == nil && len(data) != BrowserBundleLen(client) {
			t.Fatalf("%s: accepted %d bytes, a bundle is %d", archs[i], len(data), BrowserBundleLen(client))
		}
	})
}

// Sizes a bundle claims are checked against the model before anything is
// sized by them.
func TestDecodeBundleAllocatesNothingOnClaims(t *testing.T) {
	m, err := models.BuildClient("lenet", narrowCfg)
	if err != nil {
		t.Fatal(err)
	}
	sections := bundleSections(m)
	header := func(count uint32) []byte {
		b := make([]byte, headerLen)
		binary.LittleEndian.PutUint32(b[0:], magic)
		binary.LittleEndian.PutUint32(b[4:], versionCurrent)
		binary.LittleEndian.PutUint32(b[8:], count)
		return b
	}
	section := func(kind byte, name string, fields ...uint32) []byte {
		b := []byte{kind, byte(len(name)), byte(len(name) >> 8)}
		b = append(b, name...)
		for _, v := range fields {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	var packed *bundleSection
	for i := range sections {
		if sections[i].packed() {
			packed = &sections[i]
			break
		}
	}
	for name, data := range map[string][]byte{
		"4G sections":     header(math.MaxUint32),
		"4G float values": append(header(1), section(kindFloat, sections[0].name, math.MaxUint32)...),
		"4Gx4G packed":    append(header(1), section(kindPacked, packed.name, math.MaxUint32, math.MaxUint32)...),
		"64K name":        append(header(1), section(kindFloat, strings.Repeat("x", math.MaxUint16))...),
	} {
		allocated, err := decodeAllocBytes(data, m)
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if budget := decodeAllocBudget(m); allocated > budget {
			t.Errorf("%s: allocated %d bytes, budget %d", name, allocated, budget)
		}
	}
}
