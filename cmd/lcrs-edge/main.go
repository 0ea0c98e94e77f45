// Command lcrs-edge serves trained LCRS models over HTTP: browser bundles
// for web clients and main-branch inference on received intermediate
// tensors (the server side of Algorithm 2).
//
// Usage:
//
//	lcrs-edge -addr :8080 -pack demo=lenet-mnist.lcpk -pack webar=webar.lcpk
//	lcrs-edge -addr :8080 -pack demo=lenet-mnist.lcpk -watch-pack 5s
//
// Each -pack serves a deploy pack written by lcrs-train: the weights with
// their screened tau, codec default and the artifact itself for clients to
// mirror. With -watch-pack the pack files are polled and a changed pack is
// hot-swapped in with zero downtime: in-flight requests finish on the old
// version, new requests see the new one (DESIGN.md section 15).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // -debug-addr profiling endpoints
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lcrs/internal/edge"
	"lcrs/internal/exitpolicy"
	"lcrs/internal/modelio"
	"lcrs/internal/obs"
	"lcrs/internal/slo"
)

// version labels the lcrs_build_info metric; override with
// -ldflags "-X main.version=v1.2.3".
var version = "dev"

// packFlags collects repeated -pack name=path pairs.
type packFlags []string

func (p *packFlags) String() string { return strings.Join(*p, ",") }

func (p *packFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*p = append(*p, v)
	return nil
}

func main() {
	var pf packFlags
	addr := flag.String("addr", ":8080", "listen address")
	verbose := flag.Bool("verbose", false, "log every request (structured, with request IDs)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON lines instead of key=value text (implies -verbose)")
	journal := flag.Int("journal", edge.DefaultJournalSize, "requests kept in the /v1/debug/requests ring; negative disables the journal")
	codecs := flag.String("codecs", "", "comma-separated offload codecs to accept (e.g. raw,f16,q8); raw is always accepted; empty accepts all")
	batchMax := flag.Int("batch-max", 0, "coalesce up to this many concurrent infer requests into one forward (0 or 1 disables batching)")
	batchWait := flag.Duration("batch-wait", edge.DefaultBatchWait, "how long a non-full batch waits for stragglers before firing")
	debugAddr := flag.String("debug-addr", "", "optional address for net/http/pprof profiling (e.g. 127.0.0.1:6060); empty disables")
	tauMode := flag.String("tau-mode", "", "enable the closed-loop tau controller driving this signal: exitrate, agreement or utilization (empty disables)")
	tauTarget := flag.Float64("tau-target", 0.5, "controller set point for the -tau-mode signal, in (0,1)")
	tauInit := flag.Float64("tau-init", -1, "controller starting threshold; negative (the default) adopts the first client-reported tau instead")
	ansCache := flag.Int("answer-cache", 0, "content-addressed answer cache capacity per model: repeated offload payloads are answered without a replica checkout (0 disables)")
	sloOn := flag.Bool("slo", false, "grade windowed SLOs per model version: /v1/health readiness (503 while burning), /v1/slo verdict, lcrs_slo_* gauges")
	sloWindow := flag.Duration("slo-window", 60*time.Second, "long (slow-burn) SLO evaluation window")
	sloFast := flag.Duration("slo-fast-window", 10*time.Second, "fast-burn SLO window (a trailing slice of -slo-window)")
	sloLatency := flag.Duration("slo-latency-p99", 0, "p99 infer-latency objective; 0 disables the latency objective")
	sloErrors := flag.Float64("slo-max-error-rate", 0.05, "error-rate ceiling objective in [0,1]; 0 disables")
	sloAgree := flag.Float64("slo-min-agreement", 0, "binary-vs-main agreement floor objective in [0,1]; 0 disables")
	sloExitMin := flag.Float64("slo-exit-min", 0, "lower bound of the early-exit rate band objective")
	sloExitMax := flag.Float64("slo-exit-max", 0, "upper bound of the early-exit rate band objective; 0 disables the band")
	flag.Var(&pf, "pack", "name=deploy.lcpk model pack to serve (repeatable); packs carry tau, codec default and the mirrorable artifact")
	watchPack := flag.Duration("watch-pack", 0, "poll -pack files at this interval and hot-swap changed packs in with zero downtime (0 disables)")
	flag.Parse()
	if len(pf) == 0 {
		fmt.Fprintln(os.Stderr, "lcrs-edge: at least one -pack name=path is required")
		os.Exit(2)
	}
	if *watchPack < 0 {
		fmt.Fprintln(os.Stderr, "lcrs-edge: -watch-pack needs a non-negative interval")
		os.Exit(2)
	}

	var opts []edge.Option
	if *codecs != "" {
		names := strings.Split(*codecs, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		opts = append(opts, edge.WithCodecs(names...))
	}
	if *verbose || *logJSON {
		var h slog.Handler = slog.NewTextHandler(os.Stderr, nil)
		if *logJSON {
			h = slog.NewJSONHandler(os.Stderr, nil)
		}
		opts = append(opts, edge.WithSlog(slog.New(h)))
	}
	opts = append(opts, edge.WithJournal(*journal))
	if *batchMax > 1 {
		opts = append(opts, edge.WithBatching(*batchMax, *batchWait))
	}
	if *ansCache > 0 {
		opts = append(opts, edge.WithAnswerCache(*ansCache))
	}
	if *sloOn {
		opts = append(opts, edge.WithSLO(slo.Config{
			Window:       *sloWindow,
			FastWindow:   *sloFast,
			LatencyP99:   *sloLatency,
			MaxErrorRate: *sloErrors,
			MinAgreement: *sloAgree,
			ExitRateMin:  *sloExitMin,
			ExitRateMax:  *sloExitMax,
		}))
	}
	if *tauMode != "" {
		cfg := exitpolicy.Config{
			Mode:   exitpolicy.Mode(*tauMode),
			Target: *tauTarget,
		}
		if *tauInit < 0 {
			cfg.AdoptClientTau = true
		} else {
			cfg.InitialTau = *tauInit
		}
		opts = append(opts, edge.WithTauControl(cfg))
	}
	srv, err := edge.New(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcrs-edge:", err)
		os.Exit(2)
	}
	// Process-health gauges are opt-in (see internal/obs); the serving
	// binary wants them on its /metrics.
	obs.RegisterProcessMetrics(srv.Metrics(), version)
	if *batchMax > 1 {
		fmt.Printf("micro-batching: up to %d requests per forward, %v wait\n", *batchMax, *batchWait)
	}
	if *ansCache > 0 {
		fmt.Printf("answer cache: %d entries per model, invalidated on tau pushes\n", *ansCache)
	}
	if *sloOn {
		fmt.Printf("slo: grading over %v window (%v fast burn); /v1/health answers 503 while any objective fast-burns\n",
			*sloWindow, *sloFast)
	}
	if *tauMode != "" {
		seed := "adopting the first client-reported tau"
		if *tauInit >= 0 {
			seed = fmt.Sprintf("starting at tau %.3f", *tauInit)
		}
		fmt.Printf("tau controller: driving %s to %.2f, %s\n", *tauMode, *tauTarget, seed)
	}
	if *debugAddr != "" {
		// The pprof mux stays on its own listener so profiling endpoints
		// are never exposed on the serving address.
		go func() {
			ps := &http.Server{
				Addr:              *debugAddr,
				Handler:           http.DefaultServeMux, // net/http/pprof registers here
				ReadHeaderTimeout: 10 * time.Second,
			}
			fmt.Printf("pprof listening on %s\n", *debugAddr)
			if err := ps.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "lcrs-edge: pprof:", err)
			}
		}()
	}
	for _, spec := range pf {
		name, path, _ := strings.Cut(spec, "=")
		if _, err := deployPack(srv, name, path); err != nil {
			fmt.Fprintln(os.Stderr, "lcrs-edge:", err)
			os.Exit(1)
		}
	}
	if *watchPack > 0 {
		go watchPacks(srv, pf, *watchPack)
		fmt.Printf("watching %d pack file(s) every %v for hot-swaps\n", len(pf), *watchPack)
	}

	runServer(srv, *addr)
}

// deployPack opens the pack at path, stages it under name and activates
// it. Re-deploying an unchanged pack is a no-op (same content, same
// version); a changed one is a zero-downtime hot-swap.
func deployPack(srv *edge.Server, name, path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	p, err := modelio.OpenPack(data)
	if err != nil {
		return "", fmt.Errorf("open pack %s: %w", path, err)
	}
	v, err := srv.RegisterPack(name, p)
	if err != nil {
		return "", err
	}
	if err := srv.Activate(name, v); err != nil {
		return "", err
	}
	label := ""
	if p.Manifest.Label != "" {
		label = " (" + p.Manifest.Label + ")"
	}
	fmt.Printf("deployed %s: %s (%d classes, tau %.4f) version %s%s\n",
		name, p.Manifest.Arch, p.Manifest.Config.Classes, p.Manifest.Tau, v, label)
	return v, nil
}

// watchPacks polls each -pack file's mtime and hot-swaps a changed pack
// into the registry. Errors (a half-written file mid-copy, a corrupt
// upload) are logged and retried at the next tick — the previous version
// keeps serving untouched.
func watchPacks(srv *edge.Server, packs []string, every time.Duration) {
	mtimes := make(map[string]time.Time, len(packs))
	for _, spec := range packs {
		_, path, _ := strings.Cut(spec, "=")
		if fi, err := os.Stat(path); err == nil {
			mtimes[path] = fi.ModTime()
		}
	}
	for range time.Tick(every) {
		for _, spec := range packs {
			name, path, _ := strings.Cut(spec, "=")
			fi, err := os.Stat(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lcrs-edge: watch %s: %v\n", path, err)
				continue
			}
			if fi.ModTime().Equal(mtimes[path]) {
				continue
			}
			if _, err := deployPack(srv, name, path); err != nil {
				fmt.Fprintf(os.Stderr, "lcrs-edge: hot-swap %s: %v\n", path, err)
				continue // keep the old mtime so the next tick retries
			}
			mtimes[path] = fi.ModTime()
		}
	}
}

// runServer serves until SIGINT/SIGTERM, then drains.
func runServer(srv *edge.Server, addr string) {
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Printf("edge server listening on %s\n", addr)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "lcrs-edge:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Println("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "lcrs-edge: shutdown:", err)
			os.Exit(1)
		}
		srv.Close() // drain batchers so parked requests are answered
	}
}
