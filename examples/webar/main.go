// Web AR case study (Figures 8-10): the full topology over a real HTTP
// loopback. An edge server hosts a ResNet18 composite trained on the
// augmented brand-logo dataset (the China Mobile / FenJiu stand-in); a web
// client downloads the browser bundle, scans logos, answers confident ones
// from the binary branch (LCRS-B) and collaborates with the edge for the
// rest (LCRS-M).
//
//	go run ./examples/webar
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"lcrs"
)

func main() {
	log.SetFlags(0)

	// Train the recognizer on augmented logos (rotation, translation,
	// zoom, flips, colour perturbation — the paper's pipeline).
	logos := lcrs.GenerateLogoDataset(800, 1)
	train, test := logos.Split(0.8)
	cfg := lcrs.ModelConfig{Classes: logos.Classes, InC: 3, InH: 32, InW: 32, WidthScale: 0.15, Seed: 1}
	model, err := lcrs.Build("resnet18", cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training resnet18 on %d augmented logo samples (%d brands)...\n", train.Len(), logos.Classes)
	opts := lcrs.DefaultTrainOptions()
	opts.Epochs = 12
	res, err := lcrs.Train(model, train, test, opts)
	if err != nil {
		log.Fatal(err)
	}
	ev := lcrs.Evaluate(model, test, 32)
	tau, st := lcrs.ScreenThresholdAccuracyPreserving(ev)
	fmt.Printf("main acc %.1f%%, binary acc %.1f%%, tau %.4f (exit rate %.0f%%)\n\n",
		res.MainAcc*100, res.BinaryAcc*100, tau, st.ExitRate*100)

	// Edge server on a loopback listener (Figure 8's topology).
	server := lcrs.NewEdgeServer()
	if _, err := server.Register("webar", model); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: server.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("edge server listening at %s\n", base)

	// The mobile web browser: download the bundle, then scan.
	ctx := context.Background()
	browser := lcrs.NewWebClient(base)
	if err := browser.LoadModel(ctx, "webar", "resnet18", cfg, tau); err != nil {
		log.Fatal(err)
	}
	loadTime, loadBytes := browser.LoadStats()
	fmt.Printf("browser loaded bundle: %d bytes in %v\n\n", loadBytes, loadTime.Round(time.Millisecond))

	var binLat, edgeLat time.Duration
	var bins, edges, correct int
	n := 24
	for i := 0; i < n; i++ {
		x, brand := test.Sample(i)
		r, err := browser.Recognize(ctx, x)
		if err != nil {
			log.Fatal(err)
		}
		if r.Pred == brand {
			correct++
		}
		if r.Exited {
			bins++
			binLat += r.Stages.Local
			fmt.Printf("scan %2d: brand %d -> %d  LCRS-B %8v\n", i, brand, r.Pred,
				r.Stages.Local.Round(time.Microsecond))
		} else {
			edges++
			edgeLat += r.Stages.Local + r.Stages.RTT
			fmt.Printf("scan %2d: brand %d -> %d  LCRS-M %8v (edge %v)\n", i, brand, r.Pred,
				(r.Stages.Local + r.Stages.RTT).Round(time.Microsecond),
				r.Stages.RTT.Round(time.Microsecond))
		}
	}

	fmt.Printf("\n%d scans: accuracy %.0f%%, %d via LCRS-B, %d via LCRS-M\n",
		n, float64(correct)/float64(n)*100, bins, edges)
	if bins > 0 {
		fmt.Printf("avg LCRS-B latency %v\n", (binLat / time.Duration(bins)).Round(time.Microsecond))
	}
	if edges > 0 {
		fmt.Printf("avg LCRS-M latency %v\n", (edgeLat / time.Duration(edges)).Round(time.Microsecond))
	}
}
