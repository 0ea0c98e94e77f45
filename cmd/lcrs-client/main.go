// Command lcrs-client plays the mobile web browser: it downloads a model
// bundle from an lcrs-edge server, runs the binary branch locally, and
// falls back to the edge for low-confidence samples (the client side of
// Algorithm 2). It reports per-sample latency and the session exit rate.
//
// Usage:
//
//	lcrs-client -server http://127.0.0.1:8080 -model demo -pack lenet-mnist.lcpk -dataset mnist -n 20
//
// The deploy pack is only read for its manifest (architecture,
// configuration and screened tau); weights always come from the server's
// bundle.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"lcrs/internal/dataset"
	"lcrs/internal/modelio"
	"lcrs/internal/webclient"
)

func main() {
	var (
		server = flag.String("server", "http://127.0.0.1:8080", "edge server base URL")
		model  = flag.String("model", "demo", "model name on the server")
		pack   = flag.String("pack", "", "deploy pack (.lcpk) whose manifest gives the architecture, configuration and tau (required)")
		dsName = flag.String("dataset", "mnist", "dataset to sample from (mnist, fashion, cifar10, cifar100, logos)")
		n      = flag.Int("n", 20, "number of samples to recognize")
		seed   = flag.Int64("seed", 0, "sample generation seed; 0 reuses the pack's seed (the synthetic class prototypes are seed-defined, so a different seed is a different task)")
		tau    = flag.Float64("tau", -1, "override exit threshold (default: the pack's screened tau)")
		codec  = flag.String("codec", "raw", "preferred offload wire codec (raw, f16, q8..q2); negotiated with the server, falls back to raw")
		pinTau = flag.Bool("pin-tau", false, "ignore tau updates pushed by the edge's controller, keeping the starting threshold for the whole session")
		cache  = flag.Int("session-cache", 0, "session recognition cache capacity: identical offload payloads are answered locally from the last edge answer (0 disables)")
		revaln = flag.Int("revalidate-every", 0, "offload every Nth recognition of a cached frame anyway to refresh its answer (0 never revalidates; needs -session-cache)")
		pinVer = flag.Bool("pin-version", false, "pin offloads to the downloaded bundle's model version; an edge hot-swap then fails the session instead of serving cross-version answers")
	)
	flag.Parse()
	if *pack == "" {
		fmt.Fprintln(os.Stderr, "lcrs-client: -pack is required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*pack)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcrs-client:", err)
		os.Exit(1)
	}
	man, _, err := modelio.ReadPackManifest(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcrs-client:", err)
		os.Exit(1)
	}
	threshold := man.Tau
	if *tau >= 0 {
		threshold = *tau
	}
	if *seed == 0 {
		*seed = man.Config.Seed
	}

	var ds *dataset.Dataset
	if *dsName == "logos" {
		ds = dataset.GenerateLogos(dataset.DefaultLogoSpec(), *n, *seed)
	} else {
		ds, err = dataset.GenerateByName(*dsName, *n, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lcrs-client:", err)
			os.Exit(1)
		}
	}

	ctx := context.Background()
	copts := []webclient.Option{
		webclient.WithTauUpdates(!*pinTau),
	}
	if *cache > 0 {
		copts = append(copts, webclient.WithSessionCache(*cache))
	}
	if *revaln > 0 {
		copts = append(copts, webclient.WithRevalidateEvery(*revaln))
	}
	if *pinVer {
		copts = append(copts, webclient.WithVersionPin(true))
	}
	c, err := webclient.New(*server, copts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcrs-client:", err)
		os.Exit(1)
	}
	if err := c.LoadModel(ctx, *model, man.Arch, man.Config, threshold); err != nil {
		fmt.Fprintln(os.Stderr, "lcrs-client:", err)
		os.Exit(1)
	}
	loadTime, loadBytes := c.LoadStats()
	ver := c.ModelVersion()
	if ver == "" {
		ver = "unversioned"
	}
	fmt.Printf("bundle loaded: %d bytes in %v (tau %.4f, model version %s)\n",
		loadBytes, loadTime.Round(time.Microsecond), threshold, ver)
	chosen, err := c.NegotiateCodec(ctx, *codec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcrs-client:", err)
		os.Exit(1)
	}
	if chosen != *codec {
		fmt.Printf("codec %s not offered by server, using %s\n", *codec, chosen)
	} else {
		fmt.Printf("offload codec: %s\n", chosen)
	}

	var exits, hits, correct, agreeYes, agreeJudged, swaps int
	var totalClient, totalEdge, totalNet, totalServer time.Duration
	var totalPayload int
	for i := 0; i < ds.Len(); i++ {
		x, label := ds.Sample(i)
		res, err := c.Recognize(ctx, x)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lcrs-client:", err)
			os.Exit(1)
		}
		// An answer from a different version than our bundle means the edge
		// hot-swapped mid-session: re-download the bundle (a cheap 304 when
		// this was a transient rollback) so local exits match the edge again.
		if res.BundleStale {
			swaps++
			if changed, err := c.RevalidateBundle(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "lcrs-client: revalidate bundle:", err)
			} else if changed {
				fmt.Printf("edge hot-swapped to model version %s; bundle re-downloaded\n", c.ModelVersion())
			}
		}
		path := "edge"
		switch {
		case res.Exited:
			path = "binary"
			exits++
		case res.CacheHit:
			path = "cache"
			hits++
		}
		if res.Pred == label {
			correct++
		}
		totalClient += res.Stages.Local
		totalEdge += res.Stages.RTT
		totalNet += res.Stages.Network()
		totalServer += res.Stages.EdgeTotal()
		totalPayload += res.PayloadBytes
		// The request ID is the key into the edge's access log and
		// /v1/debug/requests journal; empty for local exits.
		detail := ""
		if res.RequestID != "" {
			detail = " id " + res.RequestID
		}
		if res.BinaryAgree != nil {
			agreeJudged++
			if *res.BinaryAgree {
				agreeYes++
				detail += " agree"
			} else {
				detail += " disagree"
			}
		}
		fmt.Printf("sample %2d: pred %d (label %d) via %-6s entropy %.4f client %v edge %v%s\n",
			i, res.Pred, label, path, res.Entropy,
			res.Stages.Local.Round(time.Microsecond), res.Stages.RTT.Round(time.Microsecond), detail)
	}
	fmt.Printf("\nsession: %d samples, exit rate %.0f%%, accuracy %.0f%%, avg client %v, avg edge %v, offload payload %d bytes (%s)\n",
		ds.Len(), float64(exits)/float64(ds.Len())*100, float64(correct)/float64(ds.Len())*100,
		(totalClient / time.Duration(ds.Len())).Round(time.Microsecond),
		(totalEdge / time.Duration(ds.Len())).Round(time.Microsecond),
		totalPayload, c.Codec())
	// Edge round trips decompose via the server's stage echo: what the
	// edge accounted for vs. the wire (see DESIGN.md section 10).
	if offloads := ds.Len() - exits; offloads > 0 {
		fmt.Printf("offload breakdown: avg network %v, avg edge stages %v\n",
			(totalNet / time.Duration(offloads)).Round(time.Microsecond),
			(totalServer / time.Duration(offloads)).Round(time.Microsecond))
	}
	// Agreement is the edge's verdict (it compares the shipped binary top-1
	// with its own main-branch answer) — a live health check on the binary
	// branch that needs no labels.
	if agreeJudged > 0 {
		fmt.Printf("binary-vs-main agreement: %d/%d offloads (%.0f%%)\n",
			agreeYes, agreeJudged, float64(agreeYes)/float64(agreeJudged)*100)
	}
	// Session-cache hits avoided the wire entirely; the edge learns of
	// them via the piggybacked telemetry count on the next real offload.
	if *cache > 0 {
		fmt.Printf("session cache: %d/%d recognitions answered locally (%.0f%%)\n",
			hits, ds.Len(), float64(hits)/float64(ds.Len())*100)
	}
	if swaps > 0 {
		fmt.Printf("model hot-swaps observed mid-session: %d (final version %s)\n", swaps, c.ModelVersion())
	}
	// With a controller-enabled edge (lcrs-edge -tau-mode) the threshold
	// drifts over the session as pushed updates arrive.
	if final := c.Tau(); final != threshold {
		fmt.Printf("exit threshold: started %.4f, edge controller moved it to %.4f\n", threshold, final)
	}
}
