package webclient

import (
	"fmt"
	"net/http"
	"time"
)

// Option configures a Client at construction, mirroring the edge server's
// construction idiom (see internal/edge.New): both ends of the wire are
// built with New(..., opts...) and validated before first use.
type Option func(*Client) error

// New creates a client for the edge server at baseURL (e.g.
// "http://127.0.0.1:8080"), configured by the given options:
//
//	c, err := webclient.New(url,
//		webclient.WithCodec("q8"),
//		webclient.WithSessionCache(64),
//	)
//
// With no options the client uses a private http.Client with a 30-second
// timeout and the raw offload codec.
func New(baseURL string, opts ...Option) (*Client, error) {
	c := &Client{base: baseURL, http: &http.Client{Timeout: 30 * time.Second}}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// WithHTTPClient makes the client issue requests through hc — the hook for
// custom transports, timeouts, proxies or test doubles. A nil hc keeps the
// default.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) error {
		if hc != nil {
			c.http = hc
		}
		return nil
	}
}

// WithCodec selects the wire codec used to encode the conv1 activation on
// offload requests ("raw", "f16", "q8", ...). Unknown names fail
// construction. The choice trades uplink bytes against reconstruction
// error — see the codec documentation in internal/collab.
func WithCodec(name string) Option {
	return func(c *Client) error {
		return c.setCodec(name)
	}
}

// WithTauUpdates controls whether the client adopts exit thresholds the
// edge pushes in infer responses (the output of the server-side tau
// controller, edge.WithTauControl). On by default — the push is how the
// closed loop reaches the device. Disable to pin the threshold given to
// LoadModel/SetTau; the client still reports its tau in telemetry, so
// the edge's lcrs_tau_client gauge makes the pinning visible.
func WithTauUpdates(enabled bool) Option {
	return func(c *Client) error {
		c.noTauUpdates = !enabled
		return nil
	}
}

// WithExitFlush bounds the local-exit backlog: once n decisions in a row
// have exited locally, the next would-exit sample is offloaded instead,
// flushing the piggybacked exit count (and, with a server-side tau
// controller, pulling a fresh threshold). Exit telemetry only travels on
// offload frames, so an all-exit regime otherwise goes silent exactly
// when the threshold is most wrong — a controller that overshoots into
// such a regime would freeze there with no feedback to correct it. The
// cost is bounded at one extra offload per n local exits. n <= 0 (the
// default) disables flushing; negative n is rejected.
func WithExitFlush(n int) Option {
	return func(c *Client) error {
		if n < 0 {
			return fmt.Errorf("webclient: negative exit-flush interval %d", n)
		}
		c.flushEvery = n
		return nil
	}
}

// WithSessionCache enables the session recognition cache with room for n
// answers: the client hashes the encoded conv1 payload of every offload
// (collab.FrameKey semantics) and reuses the edge's previous answer when
// an identical frame recurs — the streaming AR case where the camera holds
// on one target. Hits are reported in Result.CacheHit, piggybacked to the
// edge on the next real offload (v4 telemetry frames), and served even
// during an edge outage. n <= 0 disables the cache (the default). See
// WithRevalidateEvery for staleness bounds.
func WithSessionCache(n int) Option {
	return func(c *Client) error {
		if n <= 0 {
			c.cache = nil
			return nil
		}
		if n > 1<<20 {
			return fmt.Errorf("webclient: session cache size %d unreasonably large", n)
		}
		c.cache = newSessionCache(n)
		return nil
	}
}

// WithRevalidateEvery bounds how many consecutive hits one cache entry may
// serve before the next identical frame is offloaded anyway, refreshing
// the answer: content addressing guarantees a hit matches the frame, but
// the edge's answer for it can change (model hot-swap, tau retuning), and
// without a bound a stuck camera would pin a stale answer forever. k = 0
// (the default) never revalidates; negative k is rejected. Only meaningful
// together with WithSessionCache.
func WithRevalidateEvery(k int) Option {
	return func(c *Client) error {
		if k < 0 {
			return fmt.Errorf("webclient: negative revalidation interval %d", k)
		}
		c.revalidateEvery = k
		return nil
	}
}

// WithVersionPin makes every offload carry the loaded bundle's version in
// the X-LCRS-Model-Version header. The edge rejects with 409 Conflict
// when its active version differs — Recognize then returns an error
// wrapping ErrVersionConflict instead of an answer computed by fusing
// this client's binary branch with main-branch weights from a different
// training run. Recover with RevalidateBundle and retry. Off by default:
// an unpinned client accepts cross-version answers during a hot-swap and
// learns about the swap from Result.BundleStale.
func WithVersionPin(enabled bool) Option {
	return func(c *Client) error {
		c.pinVersion = enabled
		return nil
	}
}
