package webclient

import (
	"context"
	"net/http/httptest"
	"testing"

	"lcrs/internal/edge"
)

// TestRecognizeWithQ8Codec drives the collaborative path with the q8 wire
// codec: the edge must decode the quantized frame transparently, and the
// frame must be meaningfully smaller than the raw float32 one.
func TestRecognizeWithQ8Codec(t *testing.T) {
	c, _, test, done := trainServeClient(t, 0.0) // never exit
	defer done()
	ctx := context.Background()

	x, _ := test.Sample(0)
	rawRes, err := c.Recognize(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if rawRes.PayloadBytes <= 0 {
		t.Fatalf("raw payload bytes = %d", rawRes.PayloadBytes)
	}

	if err := c.setCodec("q8"); err != nil {
		t.Fatal(err)
	}
	if c.Codec() != "q8" {
		t.Fatalf("Codec() = %q", c.Codec())
	}
	q8Res, err := c.Recognize(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if q8Res.PayloadBytes <= 0 || q8Res.PayloadBytes*3 >= rawRes.PayloadBytes {
		t.Fatalf("q8 payload %d not >=3x smaller than raw %d", q8Res.PayloadBytes, rawRes.PayloadBytes)
	}
	// On a trained model the 8-bit reconstruction should not move this
	// sample's prediction.
	if q8Res.Pred != rawRes.Pred {
		t.Fatalf("q8 pred %d, raw pred %d", q8Res.Pred, rawRes.Pred)
	}

	if err := c.setCodec("zstd"); err == nil {
		t.Fatal("SetCodec accepted unknown codec")
	}
}

// TestNegotiateCodec covers both negotiation outcomes: a codec the server
// advertises is selected, and one it refuses falls back to raw.
func TestNegotiateCodec(t *testing.T) {
	cfg := fixtureCfg
	m, _ := trainedFixture(t)
	s, err := edge.New(edge.WithCodecs("f16")) // raw implied
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("lenet-mnist", m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	c, err := New(srv.URL, WithHTTPClient(srv.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.NegotiateCodec(ctx, "f16"); err == nil {
		t.Fatal("negotiation before LoadModel must fail")
	}
	if err := c.LoadModel(ctx, "lenet-mnist", "lenet", cfg, 0.5); err != nil {
		t.Fatal(err)
	}

	if got, err := c.NegotiateCodec(ctx, "f16"); err != nil || got != "f16" {
		t.Fatalf("negotiate f16 = %q, %v", got, err)
	}
	if c.Codec() != "f16" {
		t.Fatalf("Codec() = %q after negotiation", c.Codec())
	}
	// q8 is not advertised — the client must fall back to raw.
	if got, err := c.NegotiateCodec(ctx, "q8"); err != nil || got != "raw" {
		t.Fatalf("negotiate q8 = %q, %v; want raw fallback", got, err)
	}
	if _, err := c.NegotiateCodec(ctx, "zstd"); err == nil {
		t.Fatal("negotiating an unknown codec must fail")
	}
}
