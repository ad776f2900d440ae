// Command cohd is the coherence-as-a-service daemon: a long-running,
// stdlib-only HTTP server executing simulation runs (the same unified Run
// API the CLIs use) on a bounded worker pool with admission control, a
// content-hash result cache, and graceful drain on SIGTERM.
//
//	cohd -addr :8099 -queue 64 -cache-dir results/cache
//
// The run API mounts on the telemetry server, so one listener serves
// everything: POST/GET /v1/runs plus /metrics, /status, /healthz, and
// /debug/pprof.
package main

import (
	"context"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"migratory/internal/cliutil"
	"migratory/internal/server"
	"migratory/internal/telemetry"
	"migratory/internal/trace"
)

func main() {
	name := "cohd"
	addr := flag.String("addr", ":8099", "listen address for the API and telemetry endpoints (\":0\" picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file once serving (for scripts)")
	queueCap := flag.Int("queue", 64, "admission queue capacity; beyond it submissions get 429")
	workers := flag.Int("workers", 0, "concurrent run executors (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "results/cache", "content-hash result cache directory; empty disables memoization")
	manifestDir := flag.String("manifest-dir", "results", "directory for per-request run manifests; empty disables them")
	defaultTimeout := flag.Duration("default-timeout", 0, "deadline for requests that name none (0 = unbounded)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on requested deadlines (0 = uncapped)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain may wait for in-flight runs before aborting them")
	traceCacheBytes := flag.Int64("trace-cache-bytes", trace.DefaultTraceCacheBytes, "decoded-segment cache capacity shared across requests replaying indexed (v3) .mtr traces (0 = decode per request)")
	interval := flag.Duration("telemetry-interval", telemetry.DefaultInterval, "telemetry sampling cadence")
	logFlags := cliutil.RegisterLogging(name)
	flag.Parse()
	if flag.NArg() > 0 {
		cliutil.Usagef(name, "unexpected arguments: %v", flag.Args())
	}
	logFlags.SetupLogging()

	if *traceCacheBytes < 0 {
		cliutil.Usagef(name, "-trace-cache-bytes must be >= 0 (0 disables the cache; got %d)", *traceCacheBytes)
	}
	segCache := trace.NewSegmentCache(*traceCacheBytes)
	if segCache != nil {
		telemetry.RegisterCacheStats(func() telemetry.CacheStats { return segCache.Stats() })
	}

	man := telemetry.NewManifest(name)
	man.Extra = map[string]any{
		"queue":             *queueCap,
		"workers":           *workers,
		"trace_cache_bytes": *traceCacheBytes,
	}
	// Catch SIGTERM before anything can observe the daemon (/healthz, the
	// -addr-file): a signal that arrives during start-up waits in the
	// channel and is drained like any other, instead of killing the
	// process without a drain or a sealed manifest.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	run, err := telemetry.StartRun(telemetry.RunConfig{
		Tool:        name,
		Addr:        *addr,
		Interval:    *interval,
		ManifestDir: *manifestDir,
		Manifest:    man,
	})
	if run.Server() == nil {
		// A daemon without its listener is useless — unlike the sweep
		// tools, which degrade to serverless telemetry.
		run.Close(err)
		cliutil.Fatal(name, "listen %s: %v", *addr, err)
	}

	srv, err := server.New(server.Config{
		Queue:          *queueCap,
		Workers:        *workers,
		CacheDir:       *cacheDir,
		ManifestDir:    *manifestDir,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		Stats:          run.Stats(),
		Cache:          segCache,
	})
	if err != nil {
		cliutil.FatalRun(run, name, "%v", err)
	}
	ts := run.Server()
	ts.Handle("/v1/", srv.Handler())
	ts.OnMetrics(srv.WriteMetrics)
	ts.OnStatus(srv.StatusExtra)

	if *addrFile != "" {
		if werr := telemetry.WriteFileAtomic(*addrFile, []byte(ts.Addr()+"\n"), 0o644); werr != nil {
			cliutil.FatalRun(run, name, "write -addr-file: %v", werr)
		}
	}
	slog.Info("cohd serving", "addr", ts.Addr(),
		"queue", *queueCap, "cache_dir", *cacheDir,
		"endpoints", "/v1/runs /metrics /status /healthz /debug/pprof")

	got := <-sig
	slog.Info("draining", "signal", got.String(), "timeout", *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	if drainErr != nil {
		slog.Error("drain aborted in-flight runs", "err", drainErr)
	}
	if _, cerr := run.Close(drainErr); drainErr == nil && cerr != nil {
		slog.Warn("manifest write failed", "err", cerr)
	}
	if drainErr != nil {
		os.Exit(1)
	}
}
