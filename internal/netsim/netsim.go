// Package netsim models the wireless link between the mobile web browser
// and the edge server. Transfer time decomposes exactly as the paper's
// communication-cost experiments do: payload bits over the direction's
// bandwidth plus half the round-trip time, with optional multiplicative
// jitter for the fluctuation the paper attributes to unstable wireless
// links (Figure 6).
package netsim

import (
	"fmt"
	"time"

	"lcrs/internal/tensor"
)

// Link is a bidirectional network link profile.
type Link struct {
	// Name identifies the profile ("4g", "wifi", ...).
	Name string
	// DownMbps and UpMbps are the usable bandwidths in megabits/second.
	DownMbps, UpMbps float64
	// RTT is the round-trip time.
	RTT time.Duration
	// Jitter is the maximum fraction by which a sampled transfer deviates
	// from its expectation (0 disables jitter).
	Jitter float64

	rng *tensor.RNG
}

// FourG is the paper's evaluation setting: 10 Mb/s down, 3 Mb/s up.
func FourG() *Link {
	return &Link{Name: "4g", DownMbps: 10, UpMbps: 3, RTT: 40 * time.Millisecond, Jitter: 0.15, rng: tensor.NewRNG(40)}
}

// PaperFourG reconstructs the paper's Table II/III arithmetic: its
// mobile-only communication costs equal model megabytes divided by 10,
// which means the stated "10 Mb/s down / 3 Mb/s up" behaved as
// megaBYTES/s in their accounting (e.g. AlexNet 90.9 MB -> 9104 ms). Use
// this profile to regenerate the paper's absolute numbers; use FourG for a
// literal reading of the stated bandwidths.
func PaperFourG() *Link {
	return &Link{Name: "paper-4g", DownMbps: 80, UpMbps: 24, RTT: 40 * time.Millisecond, Jitter: 0.15, rng: tensor.NewRNG(40)}
}

// WiFi is an optimistic indoor profile.
func WiFi() *Link {
	return &Link{Name: "wifi", DownMbps: 50, UpMbps: 25, RTT: 8 * time.Millisecond, Jitter: 0.05, rng: tensor.NewRNG(41)}
}

// ThreeG is a pessimistic mobile profile.
func ThreeG() *Link {
	return &Link{Name: "3g", DownMbps: 2, UpMbps: 0.5, RTT: 150 * time.Millisecond, Jitter: 0.25, rng: tensor.NewRNG(42)}
}

// Seed re-seeds the jitter source so experiment runs are reproducible.
func (l *Link) Seed(seed int64) { l.rng = tensor.NewRNG(seed) }

func transferTime(bytes int64, mbps float64, rtt time.Duration) time.Duration {
	if mbps <= 0 {
		panic(fmt.Sprintf("netsim: non-positive bandwidth %v", mbps))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("netsim: negative payload %d", bytes))
	}
	secs := float64(bytes*8) / (mbps * 1e6)
	return time.Duration(secs*float64(time.Second)) + rtt/2
}

// DownTime returns the expected time to move bytes from edge to browser.
func (l *Link) DownTime(bytes int64) time.Duration { return transferTime(bytes, l.DownMbps, l.RTT) }

// UpTime returns the expected time to move bytes from browser to edge.
func (l *Link) UpTime(bytes int64) time.Duration { return transferTime(bytes, l.UpMbps, l.RTT) }

// jittered scales d by a deterministic pseudo-random factor in
// [1-Jitter, 1+Jitter].
func (l *Link) jittered(d time.Duration) time.Duration {
	if l.Jitter == 0 || l.rng == nil {
		return d
	}
	f := 1 + float64(l.Jitter*(float64(2*l.rng.Float64())-1))
	return time.Duration(float64(d) * f)
}

// SampleDownTime returns a jittered downlink transfer time.
func (l *Link) SampleDownTime(bytes int64) time.Duration { return l.jittered(l.DownTime(bytes)) }

// SampleUpTime returns a jittered uplink transfer time.
func (l *Link) SampleUpTime(bytes int64) time.Duration { return l.jittered(l.UpTime(bytes)) }
