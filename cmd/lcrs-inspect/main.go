// Command lcrs-inspect prints a layer-by-layer summary of a trained LCRS
// deploy pack or of a freshly built architecture: per-layer output shapes,
// parameters, deployed bytes (bit-packed for binary layers) and FLOPs, plus
// the aggregate main-model and browser-bundle sizes. Pointed at a running
// edge server it instead renders the server's live decision telemetry.
//
// Usage:
//
//	lcrs-inspect -pack demo.lcpk          # deploy pack: manifest, version, sections
//	lcrs-inspect -arch alexnet            # paper-size build, CIFAR10 shape
//	lcrs-inspect -arch vgg16 -scale 0.25
//	lcrs-inspect -server http://127.0.0.1:8080                 # /v1/exitstats
//	lcrs-inspect -server http://127.0.0.1:8080 -view journal   # /v1/debug/requests
//	lcrs-inspect -server http://127.0.0.1:8080 -view slo       # /v1/slo verdict
//	lcrs-inspect -server http://127.0.0.1:8080 -trace <id>     # client→edge waterfall
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"lcrs/internal/edge"
	"lcrs/internal/modelio"
	"lcrs/internal/models"
	"lcrs/internal/slo"
)

func main() {
	var (
		pack    = flag.String("pack", "", "deploy pack (.lcpk) to inspect: manifest, content version and section layout")
		arch    = flag.String("arch", "", "architecture to build instead of loading a pack")
		scale   = flag.Float64("scale", 1, "width scale when building from -arch")
		classes = flag.Int("classes", 10, "classes when building from -arch")
		server  = flag.String("server", "", "running edge server base URL to inspect instead of a pack")
		view    = flag.String("view", "exitstats", "remote view when -server is set: exitstats, journal or slo")
		traceID = flag.String("trace", "", "render the client→edge span waterfall for this trace (or request) ID; requires -server")
	)
	flag.Parse()

	if *traceID != "" {
		if *server == "" {
			fmt.Fprintln(os.Stderr, "lcrs-inspect: -trace requires -server")
			os.Exit(2)
		}
		if err := inspectTrace(*server, *traceID); err != nil {
			fmt.Fprintln(os.Stderr, "lcrs-inspect:", err)
			os.Exit(1)
		}
		return
	}
	if *server != "" {
		if err := inspectRemote(*server, *view); err != nil {
			fmt.Fprintln(os.Stderr, "lcrs-inspect:", err)
			os.Exit(1)
		}
		return
	}

	switch {
	case *pack != "":
		if err := inspectPack(*pack); err != nil {
			fmt.Fprintln(os.Stderr, "lcrs-inspect:", err)
			os.Exit(1)
		}
	case *arch != "":
		m, err := models.Build(*arch, models.Config{
			Classes: *classes, InC: 3, InH: 32, InW: 32, WidthScale: *scale, Seed: 1,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lcrs-inspect:", err)
			os.Exit(1)
		}
		fmt.Print(m.Summary())
	default:
		fmt.Fprintln(os.Stderr, "lcrs-inspect: one of -pack or -arch is required")
		os.Exit(2)
	}
}

// inspectPack verifies a deploy pack's digest and prints its manifest,
// content-addressed version and section layout, then the packed model's
// layer summary.
func inspectPack(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	p, err := modelio.OpenPack(data)
	if err != nil {
		return err
	}
	man := p.Manifest
	fmt.Printf("pack: %s (%d bytes, digest verified)\n", path, len(data))
	fmt.Printf("  version: %s (sha256 %s)\n", p.Version(), p.DigestHex())
	fmt.Printf("  manifest: arch=%s classes=%d scale=%.2f tau=%.4f", man.Arch, man.Config.Classes, man.Config.WidthScale, man.Tau)
	if man.Codec != "" {
		fmt.Printf(" codec=%s", man.Codec)
	}
	if man.Label != "" {
		fmt.Printf(" label=%q", man.Label)
	}
	fmt.Println()
	secs, err := modelio.PackSections(data)
	if err != nil {
		return err
	}
	for _, s := range secs {
		fmt.Printf("  section %-10s %d bytes\n", s.Name, s.Bytes)
	}
	fmt.Print(p.Model.Summary())
	return nil
}

// inspectRemote renders one of the edge server's telemetry views.
func inspectRemote(base, view string) error {
	switch view {
	case "exitstats":
		var stats []edge.ExitStats
		if err := getJSON(base+"/v1/exitstats", &stats); err != nil {
			return err
		}
		if len(stats) == 0 {
			fmt.Println("no models registered")
			return nil
		}
		// The serving counters carry the answer-cache numbers; keyed by
		// model name so the two views render side by side.
		var serving []edge.ModelStats
		if err := getJSON(base+"/v1/stats", &serving); err != nil {
			return err
		}
		byName := make(map[string]edge.ModelStats, len(serving))
		for _, ms := range serving {
			byName[ms.Name] = ms
		}
		for _, es := range stats {
			fmt.Printf("%s:\n", es.Name)
			fmt.Printf("  decisions: %d local exits, %d offloaded samples (exit rate %.2f)\n",
				es.LocalExits, es.OffloadedSamples, es.ExitRate)
			if es.ClientCacheHits > 0 {
				fmt.Printf("  client cache: %d hits reported via telemetry (never offloaded)\n", es.ClientCacheHits)
			}
			fmt.Printf("  telemetry: %d requests, agreement %d/%d (rate %.2f)\n",
				es.TelemetryRequests, es.Agree, es.Agree+es.Disagree, es.AgreeRate)
			fmt.Printf("  entropy: n=%d mean %.3f p50 %.3f p90 %.3f p99 %.3f\n",
				es.EntropyCount, es.EntropyMean, es.EntropyP50, es.EntropyP90, es.EntropyP99)
			fmt.Printf("  tau margin: p50 %.3f p90 %.3f\n", es.TauMarginP50, es.TauMarginP90)
			if ms, ok := byName[es.Name]; ok && ms.CacheHits+ms.CacheMisses > 0 {
				fmt.Printf("  answer cache: %d hits / %d misses (hit rate %.2f), %d evictions",
					ms.CacheHits, ms.CacheMisses,
					float64(ms.CacheHits)/float64(ms.CacheHits+ms.CacheMisses), ms.CacheEvictions)
				if ms.CacheHits > 0 {
					fmt.Printf(", hit p50 %dus p99 %dus", ms.CacheHitP50Micros, ms.CacheHitP99Micros)
				}
				fmt.Println()
			}
		}
	case "journal":
		var entries []edge.JournalEntry
		if err := getJSON(base+"/v1/debug/requests", &entries); err != nil {
			return err
		}
		if len(entries) == 0 {
			fmt.Println("journal empty (or disabled with -journal -1)")
			return nil
		}
		for _, e := range entries {
			line := fmt.Sprintf("%s %-16s %3d %-4s %s (%dus)",
				e.Time.Format(time.RFC3339), e.ID, e.Status, e.Method, e.Path, e.DurationMicros)
			if e.Model != "" {
				line += fmt.Sprintf(" model=%s codec=%s samples=%d", e.Model, e.Codec, e.Samples)
			}
			if e.Pred != nil {
				line += fmt.Sprintf(" pred=%d", *e.Pred)
			}
			if e.Entropy != nil {
				line += fmt.Sprintf(" entropy=%.3f", *e.Entropy)
			}
			if e.Agree != nil {
				line += fmt.Sprintf(" agree=%t", *e.Agree)
			}
			fmt.Println(line)
		}
	case "slo":
		var v slo.Verdict
		if err := getJSON(base+"/v1/slo", &v); err != nil {
			return err
		}
		fmt.Printf("slo: %s (healthy=%t, window %.0fs / fast %.0fs)\n",
			v.State, v.Healthy, v.WindowSecs, v.FastWindowSec)
		for _, t := range v.Targets {
			fmt.Printf("%s %s:\n", t.Model, t.Version)
			for _, o := range t.Objectives {
				line := fmt.Sprintf("  %-12s %-9s", o.Name, o.State)
				if o.Value >= 0 {
					line += fmt.Sprintf(" value=%.4f fast=%.4f", o.Value, o.FastValue)
				}
				if o.ThresholdLow > 0 {
					line += fmt.Sprintf(" band=[%.2f,%.2f]", o.ThresholdLow, o.Threshold)
				} else {
					line += fmt.Sprintf(" threshold=%.4f", o.Threshold)
				}
				fmt.Printf("%s samples=%d\n", line, o.Samples)
			}
		}
	default:
		return fmt.Errorf("unknown view %q (want exitstats, journal or slo)", view)
	}
	return nil
}

// inspectTrace renders /v1/debug/trace/{id} as a waterfall: one row per
// span, offset and width scaled to the request's total processing time.
// The network gap between client.encode and edge.read is excluded by
// construction (the edge cannot measure it; the client derives it as
// RTT - edge total), so the bars show where processing time went.
func inspectTrace(base, id string) error {
	var tr edge.TraceResponse
	if err := getJSON(base+"/v1/debug/trace/"+id, &tr); err != nil {
		return err
	}
	e := tr.Entry
	fmt.Printf("trace %s: %s %s -> %d", tr.TraceID, e.Method, e.Path, e.Status)
	if e.Model != "" {
		fmt.Printf(" (model=%s version=%s codec=%s)", e.Model, e.Version, e.Codec)
	}
	if e.Pred != nil {
		fmt.Printf(" pred=%d", *e.Pred)
	}
	fmt.Println()
	if len(tr.Spans) == 0 {
		fmt.Println("no spans journaled for this request (non-inference or failed before staging)")
		return nil
	}
	const cols = 48
	scale := func(micros int64) int {
		return int(micros * cols / tr.TotalMicros)
	}
	for _, sp := range tr.Spans {
		lead := scale(sp.StartMicros)
		width := scale(sp.DurationMicros)
		if width == 0 {
			width = 1
		}
		fmt.Printf("  %-16s %8dus  |%s%s%s|\n", sp.Name, sp.DurationMicros,
			strings.Repeat(" ", lead), strings.Repeat("#", width),
			strings.Repeat(" ", max(0, cols-lead-width)))
	}
	fmt.Printf("  total %dus processing (client->edge; network gap excluded)\n", tr.TotalMicros)
	return nil
}

// getJSON decodes a GET endpoint into out.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
